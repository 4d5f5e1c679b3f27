//! Differential conformance suite: optimized CPP vs the reference engine.
//!
//! The hot-path work in `ccp-cpp`/`ccp-cache`/`ccp-mem` (packed flag words,
//! SoA tag arrays, page-table memory with slice-level compressibility scans)
//! is only shippable because this module can prove it changes *nothing*
//! observable: every synthetic benchmark is replayed through both
//! [`CppHierarchy`] and the naive [`RefCppHierarchy`] and the resulting
//! [`HierarchyStats`] must be **identical in every field** — miss counts,
//! bus half-words, prefetch/promotion/parking counters, all of it. The
//! comparison runs on the stats-JSON rendering, which the
//! [`Counters`](ccp_mem::Counters) declaration makes cover every field, so
//! the golden fixtures in `tests/expected_stats/` share the same code path.
//!
//! Everything here returns data instead of panicking (the crate denies
//! panics outside tests); the `repro difftest` subcommand and the
//! test-suite wrappers decide how to fail.

use crate::fastsim::{run_functional, FastStats};
use crate::json::{counters_to_json, Json};
use ccp_cache::stats::HierarchyStats;
use ccp_cpp::{CppHierarchy, RefCppHierarchy};
use ccp_errors::{SimError, SimResult};
use ccp_schemes::SchemeKind;
use ccp_trace::{all_benchmarks, benchmark_by_name, Benchmark};
use std::path::{Path, PathBuf};

/// Result of replaying one benchmark through both engines.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// Benchmark full name.
    pub benchmark: String,
    /// Memory operations replayed (identical for both engines by
    /// construction — the trace is shared).
    pub mem_ops: u64,
    /// Stats of the optimized engine.
    pub optimized: HierarchyStats,
    /// Stats of the reference engine.
    pub reference: HierarchyStats,
    /// JSON paths of fields that differ (empty iff the engines agree).
    pub divergences: Vec<String>,
}

impl DiffOutcome {
    /// Whether the engines produced byte-identical statistics.
    pub fn matches(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Lists the JSON paths at which `a` and `b` differ (empty iff equal).
pub fn json_diff(a: &Json, b: &Json, path: &str, out: &mut Vec<String>) {
    match (a, b) {
        (Json::Obj(ma), Json::Obj(mb)) => {
            for key in ma.keys().chain(mb.keys().filter(|k| !ma.contains_key(*k))) {
                let sub = format!("{path}.{key}");
                match (ma.get(key), mb.get(key)) {
                    (Some(x), Some(y)) => json_diff(x, y, &sub, out),
                    _ => out.push(format!("{sub} (missing on one side)")),
                }
            }
        }
        _ if a == b => {}
        _ => out.push(format!("{path}: {a} != {b}")),
    }
}

/// Compares one optimized-engine run against the reference engine's
/// stats through the JSON rendering, which covers every counter by
/// construction.
fn compare(benchmark: String, o: FastStats, reference: HierarchyStats) -> DiffOutcome {
    let mut divergences = Vec::new();
    json_diff(
        &counters_to_json(&o.hierarchy),
        &counters_to_json(&reference),
        "stats",
        &mut divergences,
    );
    DiffOutcome {
        benchmark,
        mem_ops: o.mem_ops,
        optimized: o.hierarchy,
        reference,
        divergences,
    }
}

/// Replays `bench` through both engines and compares their statistics.
/// The reference engine classifies word by word, so this also checks the
/// optimized engine's memoized line masks over the whole trace.
pub fn diff_benchmark(bench: &Benchmark, budget: usize, seed: u64) -> DiffOutcome {
    let trace = bench.trace(budget, seed);
    let mut opt = CppHierarchy::paper();
    let o = run_functional(&trace, &mut opt, 0);
    let mut rf = RefCppHierarchy::paper();
    let r = run_functional(&trace, &mut rf, 0);
    compare(bench.full_name(), o, r.hierarchy)
}

/// Runs the differential suite over `benchmarks` (all 14 when empty):
/// every benchmark against the reference engine.
pub fn run_difftest(benchmarks: &[Benchmark], budget: usize, seed: u64) -> Vec<DiffOutcome> {
    let all;
    let benches = if benchmarks.is_empty() {
        all = all_benchmarks();
        &all
    } else {
        benchmarks
    };
    benches
        .iter()
        .map(|b| diff_benchmark(b, budget, seed))
        .collect()
}

/// Benchmarks pinned by the golden stats fixtures in
/// `crates/sim/tests/expected_stats/` — they span the compressibility
/// range (pointer-chase, high-compressibility, conflict-prone).
pub const GOLDEN_BENCHMARKS: [&str; 3] = ["olden.health", "spec95.130.li", "spec2000.300.twolf"];

/// Instruction budget the golden fixtures are rendered at (small enough
/// for the debug-profile test suite to replay).
pub const GOLDEN_BUDGET: usize = 40_000;

/// Workload seed the golden fixtures are rendered at.
pub const GOLDEN_SEED: u64 = 1;

/// Renders the pinned stats document for one golden benchmark under one
/// compression scheme: the optimized engine's full [`HierarchyStats`]
/// through the same JSON rendering the difftest compares, plus the replay
/// parameters so a fixture can never be silently compared at the wrong
/// budget or scheme.
pub fn golden_stats_doc_scheme(bench: &Benchmark, scheme: SchemeKind) -> String {
    let trace = bench.trace(GOLDEN_BUDGET, GOLDEN_SEED);
    let cfg = ccp_cache::HierarchyConfig::paper(ccp_cache::DesignKind::Cpp);
    let mut cache = crate::build_design_scheme(cfg, scheme);
    let s = run_functional(&trace, cache.as_mut(), 0);
    Json::obj([
        ("benchmark", Json::from(bench.full_name())),
        ("scheme", Json::from(scheme.name())),
        ("budget", Json::from(GOLDEN_BUDGET as u64)),
        ("seed", Json::from(GOLDEN_SEED)),
        ("mem_ops", Json::from(s.mem_ops)),
        ("stats", counters_to_json(&s.hierarchy)),
    ])
    .to_string()
}

/// Fixture file name for one golden benchmark × scheme cell. The paper
/// scheme keeps the historical `{name}.json` so existing tooling and diffs
/// stay stable; the other schemes are suffixed `{name}.{SCHEME}.json`.
pub fn golden_fixture_name(bench: &str, scheme: SchemeKind) -> String {
    match scheme {
        SchemeKind::Cpp => format!("{bench}.json"),
        other => format!("{bench}.{}.json", other.name()),
    }
}

/// Regenerates every golden fixture (the `repro difftest --render-goldens
/// DIR` path): one file per golden benchmark × scheme under `dir`, and the
/// pipeline fixtures in the sibling
/// [`PIPELINE_GOLDEN_DIR`](crate::pipeline_goldens::PIPELINE_GOLDEN_DIR).
/// Returns the files written.
pub fn render_goldens(dir: &Path) -> SimResult<Vec<PathBuf>> {
    let mut written = Vec::new();
    for name in GOLDEN_BENCHMARKS {
        let bench = benchmark_by_name(name).ok_or_else(|| SimError::unknown("benchmark", name))?;
        for scheme in SchemeKind::ALL {
            let path = dir.join(golden_fixture_name(name, scheme));
            let mut doc = golden_stats_doc_scheme(&bench, scheme);
            doc.push('\n');
            crate::json::write_atomic(&path, &doc)?;
            written.push(path);
        }
    }
    let pipeline_dir = dir.with_file_name(crate::pipeline_goldens::PIPELINE_GOLDEN_DIR);
    written.extend(crate::pipeline_goldens::render_pipeline_goldens(
        &pipeline_dir,
    )?);
    Ok(written)
}

/// Renders the suite's outcome as a table.
pub fn render_difftest(outcomes: &[DiffOutcome]) -> String {
    let mut s = String::from(
        "differential conformance: optimized CPP vs reference CPP\n\
         benchmark            mem_ops      verdict\n",
    );
    for o in outcomes {
        let verdict = if o.matches() { "identical" } else { "DIVERGED" };
        s.push_str(&format!(
            "{:<20} {:>10}   {verdict}\n",
            o.benchmark, o.mem_ops
        ));
        for d in &o.divergences {
            s.push_str(&format!("    {d}\n"));
        }
    }
    let failed = outcomes.iter().filter(|o| !o.matches()).count();
    if failed == 0 {
        s.push_str(&format!(
            "all {} benchmark cells byte-identical across engines\n",
            outcomes.len()
        ));
    } else {
        s.push_str(&format!("{failed} benchmark cell(s) DIVERGED\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-1 gate: every benchmark, modest budget (debug builds run
    /// this too; `repro difftest` re-runs it at full budget in release).
    #[test]
    fn all_benchmarks_difftest_identical() {
        let outcomes = run_difftest(&[], 40_000, 1);
        assert_eq!(outcomes.len(), all_benchmarks().len());
        for o in &outcomes {
            assert!(
                o.matches(),
                "{} diverged:\n{}",
                o.benchmark,
                o.divergences.join("\n")
            );
            assert!(o.mem_ops > 0, "{} replayed nothing", o.benchmark);
        }
    }

    #[test]
    fn difftest_is_seed_sensitive_but_still_identical() {
        let b = all_benchmarks();
        let o = diff_benchmark(&b[0], 20_000, 7);
        assert!(o.matches(), "{:?}", o.divergences);
    }

    #[test]
    fn json_diff_reports_paths() {
        let a = Json::obj([("x", Json::from(1u64)), ("y", Json::from(2u64))]);
        let b = Json::obj([("x", Json::from(1u64)), ("y", Json::from(3u64))]);
        let mut out = Vec::new();
        json_diff(&a, &b, "root", &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("root.y"));
    }
}
