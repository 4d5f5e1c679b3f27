//! `repro perf` — the core hot-path performance harness.
//!
//! Times functional replay of every synthetic benchmark through the
//! optimized [`CppHierarchy`] and the naive reference engine
//! ([`RefCppHierarchy`]), reporting per-benchmark wall time, replay
//! throughput, and the speedup of the optimized engine. The reference
//! engine preserves the pre-overhaul representation (per-word flag
//! booleans, per-word memory reads, scan-based lookup), so the speedup
//! column is the measured value of the storage/batching overhaul — and the
//! difftest guarantees the two engines are observably identical, so the
//! comparison is apples to apples.
//!
//! Beside the replay, each benchmark also times one out-of-order pipeline
//! run ([`run_source`] under CPP at paper latencies), the layer `repro all`
//! spends its time in, so the trajectory shows pipeline speedups too.
//!
//! Results are written to `BENCH_core.json` (atomic temp-then-rename) so
//! the committed snapshot regenerates with one command; see DESIGN.md §10.
//!
//! Wall-clock use is confined to this crate by the `no-wallclock` lint rule
//! (model crates must stay deterministic).

use crate::difftest::diff_benchmark;
use crate::fastsim::run_functional;
use crate::json::Json;
use ccp_cache::CacheSim;
use ccp_cpp::{CppHierarchy, RefCppHierarchy};
use ccp_pipeline::{run_source, PipelineConfig};
use ccp_trace::{all_benchmarks, Benchmark, Trace};
use std::time::Instant;

/// Timing of one benchmark on both engines.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Benchmark full name.
    pub benchmark: String,
    /// Compression scheme both engines ran (always `"CPP"` — the naive
    /// reference engine only exists for the paper's scheme, so that is the
    /// only apples-to-apples comparison; the tag keeps `BENCH_core.json`
    /// rows unambiguous next to the multi-scheme study report).
    pub scheme: String,
    /// Memory operations replayed per engine run.
    pub mem_ops: u64,
    /// Optimized-engine wall time in seconds.
    pub optimized_secs: f64,
    /// Reference-engine wall time in seconds.
    pub reference_secs: f64,
    /// Instructions in the trace (what the pipeline run commits).
    pub instructions: u64,
    /// Out-of-order pipeline wall time in seconds.
    pub pipeline_secs: f64,
}

impl PerfRow {
    /// Reference time over optimized time (>1 means the overhaul pays).
    pub fn speedup(&self) -> f64 {
        if self.optimized_secs > 0.0 {
            self.reference_secs / self.optimized_secs
        } else {
            f64::INFINITY
        }
    }

    /// Optimized replay throughput in million memory operations per second.
    pub fn optimized_mops(&self) -> f64 {
        if self.optimized_secs > 0.0 {
            self.mem_ops as f64 / self.optimized_secs / 1.0e6
        } else {
            f64::INFINITY
        }
    }
}

/// The whole harness run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Per-benchmark timings.
    pub rows: Vec<PerfRow>,
    /// Instruction budget per benchmark.
    pub budget: usize,
    /// Workload seed.
    pub seed: u64,
}

impl PerfReport {
    /// Geometric mean of per-benchmark speedups (the headline number; the
    /// geomean weights every benchmark equally regardless of trace length).
    pub fn geomean_speedup(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.rows.iter().map(|r| r.speedup().ln()).sum();
        (log_sum / self.rows.len() as f64).exp()
    }

    /// Pipeline throughput over every row in million committed
    /// instructions per second (total instructions over total time).
    pub fn pipeline_minst_s(&self) -> f64 {
        let insts: u64 = self.rows.iter().map(|r| r.instructions).sum();
        let secs: f64 = self.rows.iter().map(|r| r.pipeline_secs).sum();
        if secs > 0.0 {
            insts as f64 / secs / 1.0e6
        } else {
            f64::INFINITY
        }
    }

    /// Aggregate speedup: total reference time over total optimized time.
    pub fn total_speedup(&self) -> f64 {
        let opt: f64 = self.rows.iter().map(|r| r.optimized_secs).sum();
        let rf: f64 = self.rows.iter().map(|r| r.reference_secs).sum();
        if opt > 0.0 {
            rf / opt
        } else {
            f64::INFINITY
        }
    }
}

fn time_replay(trace: &Trace, cache: &mut dyn CacheSim) -> (f64, u64) {
    // ccp-lint: allow(deterministic-core-transitive) — wall-clock here measures host throughput for the perf report; the duration is output-only and never feeds simulated state
    let t0 = Instant::now();
    let s = run_functional(trace, cache, 0);
    (t0.elapsed().as_secs_f64(), s.mem_ops)
}

fn time_pipeline(trace: &Trace) -> f64 {
    let mut cache = CppHierarchy::paper();
    // ccp-lint: allow(deterministic-core-transitive) — wall-clock here measures host throughput for the perf report; the duration is output-only and never feeds simulated state
    let t0 = Instant::now();
    run_source(trace, &mut cache, &PipelineConfig::paper());
    t0.elapsed().as_secs_f64()
}

/// Times one benchmark on both engines and through the pipeline. The
/// trace is generated once and shared. Each engine and the pipeline get an
/// untimed warm-up run (allocator, branch predictors, frequency scaling)
/// on a hierarchy of their own, then the timed run on another fresh one,
/// so both engines time the same workload from empty caches.
pub fn perf_benchmark(bench: &Benchmark, budget: usize, seed: u64) -> PerfRow {
    let trace = bench.trace(budget, seed);
    time_replay(&trace, &mut CppHierarchy::paper()); // warm-up, untimed
    let (optimized_secs, mem_ops) = time_replay(&trace, &mut CppHierarchy::paper());
    time_replay(&trace, &mut RefCppHierarchy::paper()); // warm-up, untimed
    let (reference_secs, _) = time_replay(&trace, &mut RefCppHierarchy::paper());
    time_pipeline(&trace); // warm-up, untimed
    let pipeline_secs = time_pipeline(&trace);
    PerfRow {
        benchmark: bench.full_name(),
        scheme: ccp_schemes::SchemeKind::Cpp.name().to_string(),
        mem_ops,
        optimized_secs,
        reference_secs,
        instructions: trace.len() as u64,
        pipeline_secs,
    }
}

/// Runs the harness over `benchmarks` (all 14 when empty).
pub fn run_perf(benchmarks: &[Benchmark], budget: usize, seed: u64) -> PerfReport {
    let all;
    let benches = if benchmarks.is_empty() {
        all = all_benchmarks();
        &all
    } else {
        benchmarks
    };
    PerfReport {
        rows: benches
            .iter()
            .map(|b| perf_benchmark(b, budget, seed))
            .collect(),
        budget,
        seed,
    }
}

/// Conformance guard for the perf path: re-checks a benchmark's engines
/// agree before publishing numbers for them. Returns the names of any
/// diverging benchmarks (normally empty — the full difftest already
/// gates CI).
pub fn conformance_spot_check(benchmarks: &[Benchmark], budget: usize, seed: u64) -> Vec<String> {
    benchmarks
        .iter()
        .filter_map(|b| {
            let o = diff_benchmark(b, budget, seed);
            if o.matches() {
                None
            } else {
                Some(o.benchmark)
            }
        })
        .collect()
}

/// Renders the report as a table.
pub fn render_perf(report: &PerfReport) -> String {
    let mut s = format!(
        "core hot-path benchmark (budget {} insts, seed {})\n\
         benchmark              mem_ops   optimized    reference    speedup   Mops/s    pipeline\n",
        report.budget, report.seed
    );
    for r in &report.rows {
        s.push_str(&format!(
            "{:<20} {:>10}   {:>8.2} ms  {:>8.2} ms  {:>6.2}x  {:>7.2}  {:>8.2} ms\n",
            r.benchmark,
            r.mem_ops,
            r.optimized_secs * 1e3,
            r.reference_secs * 1e3,
            r.speedup(),
            r.optimized_mops(),
            r.pipeline_secs * 1e3,
        ));
    }
    s.push_str(&format!(
        "geomean speedup {:.2}x, aggregate {:.2}x; pipeline (CPP) {:.2} Minst/s\n",
        report.geomean_speedup(),
        report.total_speedup(),
        report.pipeline_minst_s()
    ));
    s
}

/// Converts the report to the `BENCH_core.json` document.
pub fn perf_json(report: &PerfReport) -> Json {
    Json::obj([
        ("name", Json::from("core_hotpath")),
        ("budget", Json::from(report.budget as u64)),
        ("seed", Json::from(report.seed)),
        (
            "rows",
            Json::Arr(
                report
                    .rows
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("benchmark", Json::from(r.benchmark.clone())),
                            ("scheme", Json::from(r.scheme.clone())),
                            ("mem_ops", Json::from(r.mem_ops)),
                            ("optimized_secs", Json::from(r.optimized_secs)),
                            ("reference_secs", Json::from(r.reference_secs)),
                            ("speedup", Json::from(r.speedup())),
                            ("optimized_mops", Json::from(r.optimized_mops())),
                            ("instructions", Json::from(r.instructions)),
                            ("pipeline_secs", Json::from(r.pipeline_secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("geomean_speedup", Json::from(report.geomean_speedup())),
        ("total_speedup", Json::from(report.total_speedup())),
        ("pipeline_minst_s", Json::from(report.pipeline_minst_s())),
    ])
}

/// One `BENCH_core.json` trajectory entry: the classic snapshot document
/// plus run provenance (git revision and the host's available
/// parallelism as `nproc`).
pub fn perf_entry_json(report: &PerfReport, git_rev: &str) -> Json {
    let Json::Obj(mut map) = perf_json(report) else {
        unreachable!("perf_json renders an object");
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    map.insert("git_rev".to_string(), Json::from(git_rev.to_string()));
    map.insert("nproc".to_string(), Json::from(nproc as u64));
    Json::Obj(map)
}

/// Appends `entry` to a `BENCH_core.json` trajectory document, returning
/// the new document. `existing` is the current file content, if any:
///
/// * a trajectory document (`"entries"` array) grows by one entry;
/// * the legacy single-snapshot format (top-level `"rows"`) is wrapped as
///   the first entry, tagged `"git_rev": "pre-trajectory"` (it predates
///   provenance tracking; dispatch/threads were implicitly scalar × 1);
/// * unreadable/absent content starts a fresh trajectory — perf history
///   is advisory, so a corrupt file is replaced rather than fatal.
pub fn append_trajectory(existing: Option<&str>, entry: Json) -> Json {
    let mut entries: Vec<Json> = Vec::new();
    if let Some(text) = existing {
        if let Ok(doc) = Json::parse(text) {
            match doc.get("entries") {
                Some(Json::Arr(old)) => entries.extend(old.iter().cloned()),
                _ => {
                    if let Json::Obj(mut legacy) = doc {
                        if legacy.contains_key("rows") {
                            legacy
                                .entry("git_rev".to_string())
                                .or_insert_with(|| Json::from("pre-trajectory".to_string()));
                            legacy
                                .entry("dispatch".to_string())
                                .or_insert_with(|| Json::from("scalar".to_string()));
                            legacy
                                .entry("threads".to_string())
                                .or_insert_with(|| Json::from(1u64));
                            entries.push(Json::Obj(legacy));
                        }
                    }
                }
            }
        }
    }
    entries.push(entry);
    Json::obj([
        ("name", Json::from("core_hotpath_trajectory")),
        ("entries", Json::Arr(entries)),
    ])
}

/// The newest trajectory entry's geomean speedup (what CI's floor
/// assertion reads), or `None` for an empty/malformed document.
pub fn newest_geomean(doc: &Json) -> Option<f64> {
    let Json::Arr(entries) = doc.get("entries")? else {
        return None;
    };
    match entries.last()?.get("geomean_speedup")? {
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_trace::benchmark_by_name;

    #[test]
    fn perf_row_math() {
        let r = PerfRow {
            benchmark: "x".into(),
            scheme: "CPP".into(),
            mem_ops: 2_000_000,
            optimized_secs: 0.5,
            reference_secs: 2.0,
            instructions: 0,
            pipeline_secs: 0.0,
        };
        assert!((r.speedup() - 4.0).abs() < 1e-12);
        assert!((r.optimized_mops() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_and_total_speedup() {
        let report = PerfReport {
            rows: vec![
                PerfRow {
                    benchmark: "a".into(),
                    scheme: "CPP".into(),
                    mem_ops: 1,
                    optimized_secs: 1.0,
                    reference_secs: 2.0,
                    instructions: 3_000_000,
                    pipeline_secs: 1.0,
                },
                PerfRow {
                    benchmark: "b".into(),
                    scheme: "CPP".into(),
                    mem_ops: 1,
                    optimized_secs: 1.0,
                    reference_secs: 8.0,
                    instructions: 1_000_000,
                    pipeline_secs: 1.0,
                },
            ],
            budget: 0,
            seed: 0,
        };
        assert!((report.geomean_speedup() - 4.0).abs() < 1e-9);
        assert!((report.total_speedup() - 5.0).abs() < 1e-9);
        assert!((report.pipeline_minst_s() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn harness_times_a_small_benchmark() {
        let b = benchmark_by_name("health")
            .map(|b| vec![b])
            .unwrap_or_default();
        let report = run_perf(&b, 5_000, 1);
        assert_eq!(report.rows.len(), 1);
        let r = &report.rows[0];
        assert!(r.mem_ops > 0);
        assert!(r.optimized_secs >= 0.0 && r.reference_secs >= 0.0);
        assert!(r.instructions >= 5_000, "the trace fills the budget");
        assert!(r.pipeline_secs > 0.0, "the pipeline run is timed");
        let doc = perf_json(&report).to_string();
        assert!(doc.contains("core_hotpath") && doc.contains("geomean_speedup"));
        assert!(doc.contains("\"pipeline_secs\":") && doc.contains("\"pipeline_minst_s\":"));
        assert!(
            doc.contains("\"scheme\":\"CPP\""),
            "rows carry the scheme tag"
        );
    }

    fn tiny_report() -> PerfReport {
        PerfReport {
            rows: vec![PerfRow {
                benchmark: "a".into(),
                scheme: "CPP".into(),
                mem_ops: 1,
                optimized_secs: 1.0,
                reference_secs: 3.0,
                instructions: 1,
                pipeline_secs: 1.0,
            }],
            budget: 100,
            seed: 1,
        }
    }

    #[test]
    fn trajectory_starts_fresh_and_grows() {
        let e1 = perf_entry_json(&tiny_report(), "abc1234");
        let doc1 = append_trajectory(None, e1);
        let text1 = doc1.to_string();
        assert!(text1.contains("core_hotpath_trajectory"));
        assert!((newest_geomean(&doc1).expect("geomean") - 3.0).abs() < 1e-9);

        let e2 = perf_entry_json(&tiny_report(), "def5678");
        let doc2 = append_trajectory(Some(&text1), e2);
        let Some(Json::Arr(entries)) = doc2.get("entries") else {
            panic!("entries array");
        };
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[1].get("git_rev"),
            Some(&Json::from("def5678".to_string()))
        );
        let nproc = entries[1].get("nproc").and_then(Json::as_u64);
        assert!(nproc >= Some(1), "entries record the host's core count");
        assert!(entries[1].get("threads").is_none());
        assert!(entries[1].get("dispatch").is_none());
    }

    #[test]
    fn trajectory_wraps_legacy_snapshot() {
        // The pre-trajectory BENCH_core.json was a bare snapshot document;
        // appending must preserve it as the first entry, tagged.
        let legacy = perf_json(&tiny_report()).to_string();
        let entry = perf_entry_json(&tiny_report(), "abc1234");
        let doc = append_trajectory(Some(&legacy), entry);
        let Some(Json::Arr(entries)) = doc.get("entries") else {
            panic!("entries array");
        };
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0].get("git_rev"),
            Some(&Json::from("pre-trajectory".to_string()))
        );
        assert_eq!(
            entries[0].get("dispatch"),
            Some(&Json::from("scalar".to_string()))
        );
        assert_eq!(
            entries[1].get("git_rev"),
            Some(&Json::from("abc1234".to_string()))
        );
        assert!((newest_geomean(&doc).expect("geomean") - 3.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_replaces_unreadable_content() {
        let entry = perf_entry_json(&tiny_report(), "abc1234");
        let doc = append_trajectory(Some("not json {"), entry);
        let Some(Json::Arr(entries)) = doc.get("entries") else {
            panic!("entries array");
        };
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn conformance_spot_check_is_clean() {
        let b = benchmark_by_name("mst")
            .map(|b| vec![b])
            .unwrap_or_default();
        assert!(conformance_spot_check(&b, 10_000, 1).is_empty());
    }
}
