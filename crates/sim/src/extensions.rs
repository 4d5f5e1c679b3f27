//! Extension experiments beyond the paper's evaluation, exercising the
//! related work it cites and the analysis machinery this repo adds:
//!
//! * [`stride_comparison`] — BC vs BCP (next-line) vs **SPT** (Baer-Chen
//!   stride prefetching, the paper's reference \[2\]) vs CPP,
//! * [`fvc_comparison`] — the paper's 16-bit significance scheme vs
//!   **frequent-value compression** (references \[6\]/\[9\]) as pure
//!   bus-compression schemes on identical value streams,
//! * [`cpi_stacks`] — per-design cycle attribution (busy / front-end /
//!   memory / core), showing *where* CPP buys its time back.

use crate::report::{f2, pct, render_table};
use crate::{build_design, build_design_scheme};
use ccp_cache::{CacheSim, DesignKind, HierarchyConfig, StrideHierarchy, VictimHierarchy};
use ccp_compress::fvc::FrequentValueTable;
use ccp_compress::{bus_halfwords, is_compressible};
use ccp_pipeline::{run_inorder, run_source, CpiStack, PipelineConfig, RunStats};
use ccp_schemes::SchemeKind;
use ccp_trace::{all_benchmarks, Benchmark, Trace};
use serde::Serialize;

/// One row of the prefetcher-policy comparison.
#[derive(Debug, Clone, Serialize)]
pub struct StrideRow {
    /// Benchmark full name.
    pub benchmark: String,
    /// Execution cycles per design, normalized to BC.
    pub bcp_cycles: f64,
    /// SPT cycles / BC cycles.
    pub spt_cycles: f64,
    /// CPP cycles / BC cycles.
    pub cpp_cycles: f64,
    /// BCP memory traffic / BC traffic.
    pub bcp_traffic: f64,
    /// SPT memory traffic / BC traffic.
    pub spt_traffic: f64,
    /// CPP memory traffic / BC traffic.
    pub cpp_traffic: f64,
}

fn run_design(trace: &Trace, mut cache: Box<dyn CacheSim>) -> RunStats {
    run_source(trace, cache.as_mut(), &PipelineConfig::paper())
}

/// Compares the three prefetching policies (next-line buffer, stride RPT,
/// compression-enabled partial-line) against BC.
pub fn stride_comparison(benchmarks: &[Benchmark], budget: usize, seed: u64) -> Vec<StrideRow> {
    benchmarks
        .iter()
        .map(|b| {
            let trace = b.trace(budget, seed);
            let bc = run_design(&trace, build_design(DesignKind::Bc));
            let bcp = run_design(&trace, build_design(DesignKind::Bcp));
            let spt = run_design(&trace, Box::new(StrideHierarchy::paper()));
            let cpp = run_design(&trace, build_design(DesignKind::Cpp));
            let t = |s: &RunStats| s.hierarchy.memory_traffic_halfwords().max(1) as f64;
            let base_c = bc.cycles as f64;
            let base_t = t(&bc);
            StrideRow {
                benchmark: b.full_name(),
                bcp_cycles: bcp.cycles as f64 / base_c,
                spt_cycles: spt.cycles as f64 / base_c,
                cpp_cycles: cpp.cycles as f64 / base_c,
                bcp_traffic: t(&bcp) / base_t,
                spt_traffic: t(&spt) / base_t,
                cpp_traffic: t(&cpp) / base_t,
            }
        })
        .collect()
}

/// Renders the stride comparison.
pub fn render_stride(rows: &[StrideRow]) -> String {
    let headers: Vec<String> = [
        "benchmark",
        "BCP time",
        "SPT time",
        "CPP time",
        "BCP traffic",
        "SPT traffic",
        "CPP traffic",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                pct(r.bcp_cycles),
                pct(r.spt_cycles),
                pct(r.cpp_cycles),
                pct(r.bcp_traffic),
                pct(r.spt_traffic),
                pct(r.cpp_traffic),
            ]
        })
        .collect();
    format!(
        "Extension A: prefetch policies vs BC — next-line buffer (BCP), \
         stride RPT (SPT, Baer-Chen '91), partial-line (CPP)\n{}",
        render_table(&headers, &table)
    )
}

/// One row of the compression-scheme comparison.
#[derive(Debug, Clone, Serialize)]
pub struct FvcRow {
    /// Benchmark full name.
    pub benchmark: String,
    /// Paper scheme: encoded bits per word (17 compressible / 33 not,
    /// counting the VC flag).
    pub paper_bits_per_word: f64,
    /// FVC-32 (32-entry dynamic table): encoded bits per word.
    pub fvc_bits_per_word: f64,
    /// Fraction of words the paper's scheme compresses.
    pub paper_coverage: f64,
    /// Fraction of words FVC finds in its table.
    pub fvc_coverage: f64,
}

/// Compares the paper's significance-based scheme against a 32-entry
/// frequent-value table on every benchmark's dynamic value stream.
pub fn fvc_comparison(benchmarks: &[Benchmark], budget: usize, seed: u64) -> Vec<FvcRow> {
    benchmarks
        .iter()
        .map(|b| {
            let trace = b.trace(budget, seed);
            let mut fvt = FrequentValueTable::new(32);
            let mut paper_bits = 0u64;
            let mut paper_hits = 0u64;
            let mut fvc_stats = ccp_compress::fvc::FvcStats::default();
            let mut total = 0u64;
            trace.profile_values(|v, a| {
                total += 1;
                // Paper scheme: VC flag + 16-bit or full word.
                if is_compressible(v, a) {
                    paper_hits += 1;
                    paper_bits += 17;
                } else {
                    paper_bits += 33;
                }
                debug_assert_eq!(bus_halfwords(v, a) != 2, is_compressible(v, a));
                let hit = fvt.contains(v);
                fvc_stats.bits += fvt.observe(v);
                if hit {
                    fvc_stats.hits += 1;
                } else {
                    fvc_stats.misses += 1;
                }
            });
            let totalf = total.max(1) as f64;
            FvcRow {
                benchmark: b.full_name(),
                paper_bits_per_word: paper_bits as f64 / totalf,
                fvc_bits_per_word: fvc_stats.bits as f64 / totalf,
                paper_coverage: paper_hits as f64 / totalf,
                fvc_coverage: fvc_stats.hits as f64 / totalf,
            }
        })
        .collect()
}

/// Renders the FVC comparison.
pub fn render_fvc(rows: &[FvcRow]) -> String {
    let headers: Vec<String> = [
        "benchmark",
        "paper bits/w",
        "FVC bits/w",
        "paper cover",
        "FVC cover",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                f2(r.paper_bits_per_word),
                f2(r.fvc_bits_per_word),
                pct(r.paper_coverage),
                pct(r.fvc_coverage),
            ]
        })
        .collect();
    format!(
        "Extension B: bus-compression schemes on identical value streams — \
         the paper's 16-bit significance scheme vs a 32-entry frequent-value \
         table (MICRO-2000)\n{}\nNote: only the significance scheme admits \
         partial-line prefetching — FVC's dictionary encoding has no fixed \
         per-word slot to lend to the affiliated line (paper §5).",
        render_table(&headers, &table)
    )
}

/// One row of the CPI-stack table.
#[derive(Debug, Clone, Serialize)]
pub struct CpiRow {
    /// Benchmark full name.
    pub benchmark: String,
    /// Design name.
    pub design: String,
    /// Total cycles.
    pub cycles: u64,
    /// The attribution.
    pub stack: CpiStackShare,
}

/// A CPI stack as fractions.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CpiStackShare {
    /// Committing cycles.
    pub busy: f64,
    /// Front-end starved.
    pub frontend: f64,
    /// Waiting on the data memory hierarchy.
    pub memory: f64,
    /// Waiting on operands / functional units.
    pub core: f64,
}

impl From<CpiStack> for CpiStackShare {
    fn from(s: CpiStack) -> Self {
        let t = s.total().max(1) as f64;
        CpiStackShare {
            busy: s.busy as f64 / t,
            frontend: s.frontend as f64 / t,
            memory: s.memory as f64 / t,
            core: s.core as f64 / t,
        }
    }
}

/// Cycle attribution per benchmark × design.
pub fn cpi_stacks(benchmarks: &[Benchmark], budget: usize, seed: u64) -> Vec<CpiRow> {
    let mut rows = Vec::new();
    for b in benchmarks {
        let trace = b.trace(budget, seed);
        for kind in DesignKind::ALL {
            let s = run_design(&trace, build_design(kind));
            rows.push(CpiRow {
                benchmark: b.full_name(),
                design: kind.name().to_string(),
                cycles: s.cycles,
                stack: s.cpi_stack.into(),
            });
        }
    }
    rows
}

/// Renders the CPI stacks.
pub fn render_cpi(rows: &[CpiRow]) -> String {
    let headers: Vec<String> = [
        "benchmark",
        "design",
        "cycles",
        "busy",
        "frontend",
        "memory",
        "core",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.design.clone(),
                r.cycles.to_string(),
                pct(r.stack.busy),
                pct(r.stack.frontend),
                pct(r.stack.memory),
                pct(r.stack.core),
            ]
        })
        .collect();
    format!(
        "Extension C: CPI stacks — where each design spends its cycles\n{}",
        render_table(&headers, &table)
    )
}

/// One row of the conflict-miss remedy comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ConflictRow {
    /// Benchmark full name.
    pub benchmark: String,
    /// HAC cycles / BC cycles.
    pub hac: f64,
    /// Victim-cache cycles / BC cycles.
    pub vc: f64,
    /// CPP cycles / BC cycles.
    pub cpp: f64,
    /// CPP with compressed write-backs, cycles / BC cycles.
    pub cpp_cwb_traffic: f64,
}

/// Extension D: the three conflict-miss remedies — doubled associativity
/// (HAC), a 4-entry Jouppi victim cache (VC), and CPP's affiliated parking
/// — plus the traffic effect of CPP's compressed-write-back knob.
pub fn conflict_comparison(benchmarks: &[Benchmark], budget: usize, seed: u64) -> Vec<ConflictRow> {
    benchmarks
        .iter()
        .map(|b| {
            let trace = b.trace(budget, seed);
            let bc = run_design(&trace, build_design(DesignKind::Bc));
            let hac = run_design(&trace, build_design(DesignKind::Hac));
            let vc = run_design(&trace, Box::new(VictimHierarchy::paper()));
            let cpp = run_design(&trace, build_design(DesignKind::Cpp));
            let mut cwb_cfg = HierarchyConfig::paper(DesignKind::Cpp);
            cwb_cfg.compress_writebacks = true;
            let cwb = run_design(&trace, build_design_scheme(cwb_cfg, SchemeKind::Cpp));
            let base_c = bc.cycles as f64;
            let base_t = bc.hierarchy.memory_traffic_halfwords().max(1) as f64;
            ConflictRow {
                benchmark: b.full_name(),
                hac: hac.cycles as f64 / base_c,
                vc: vc.cycles as f64 / base_c,
                cpp: cpp.cycles as f64 / base_c,
                cpp_cwb_traffic: cwb.hierarchy.memory_traffic_halfwords() as f64 / base_t,
            }
        })
        .collect()
}

/// Renders the conflict comparison.
pub fn render_conflict(rows: &[ConflictRow]) -> String {
    let headers: Vec<String> = [
        "benchmark",
        "HAC time",
        "VC time",
        "CPP time",
        "CPP+cwb traffic",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                pct(r.hac),
                pct(r.vc),
                pct(r.cpp),
                pct(r.cpp_cwb_traffic),
            ]
        })
        .collect();
    format!(
        "Extension D: conflict-miss remedies vs BC — doubled associativity (HAC), 4-entry victim cache (VC, Jouppi '90), affiliated parking (CPP); last column: CPP memory traffic with compressed write-backs
{}",
        render_table(&headers, &table)
    )
}

/// One row of the §3.3 compressibility-transition study.
#[derive(Debug, Clone, Serialize)]
pub struct TransitionRow {
    /// Benchmark full name.
    pub benchmark: String,
    /// Dynamic stores observed.
    pub stores: u64,
    /// Stores that flipped a word compressible → incompressible (the §3.3
    /// hazard that can evict affiliated words or force promotions).
    pub grow: u64,
    /// Stores that flipped a word incompressible → compressible.
    pub shrink: u64,
    /// Fraction of stores that changed the word's class either way.
    pub flip_rate: f64,
}

/// Extension E: validates the paper's §3.3 design assumption — "dynamic
/// values do not change that frequently" between the compressible and
/// incompressible classes — by replaying every store against the evolving
/// memory image and classifying old vs new value.
pub fn transition_study(benchmarks: &[Benchmark], budget: usize, seed: u64) -> Vec<TransitionRow> {
    benchmarks
        .iter()
        .map(|b| {
            let trace = b.trace(budget, seed);
            let mut mem = trace.initial_mem.clone();
            let (mut stores, mut grow, mut shrink) = (0u64, 0u64, 0u64);
            for i in &trace.insts {
                if let ccp_trace::Op::Store { addr, value } = i.op {
                    stores += 1;
                    let was = is_compressible(mem.read(addr), addr);
                    let now = is_compressible(value, addr);
                    match (was, now) {
                        (true, false) => grow += 1,
                        (false, true) => shrink += 1,
                        _ => {}
                    }
                    mem.write(addr, value);
                }
            }
            TransitionRow {
                benchmark: b.full_name(),
                stores,
                grow,
                shrink,
                flip_rate: (grow + shrink) as f64 / stores.max(1) as f64,
            }
        })
        .collect()
}

/// Renders the transition study.
pub fn render_transitions(rows: &[TransitionRow]) -> String {
    let headers: Vec<String> = ["benchmark", "stores", "grow", "shrink", "flip rate"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.stores.to_string(),
                r.grow.to_string(),
                r.shrink.to_string(),
                pct(r.flip_rate),
            ]
        })
        .collect();
    format!(
        "Extension E: compressibility transitions per store (validates the paper's §3.3 assumption that class changes are rare)
{}",
        render_table(&headers, &table)
    )
}

/// One row of the core-model study: CPP's speedup over BC on the 4-wide
/// out-of-order core versus a scalar in-order core.
#[derive(Debug, Clone, Serialize)]
pub struct CoreModelRow {
    /// Benchmark full name.
    pub benchmark: String,
    /// CPP cycles / BC cycles on the OOO core.
    pub ooo: f64,
    /// CPP cycles / BC cycles on the in-order core.
    pub inorder: f64,
}

/// Extension F: how much of CPP's win needs the out-of-order window?
/// The paper's §4.4 miss-importance argument says CPP moves misses off the
/// dependence chain, which only pays when the core can overlap them.
pub fn core_model_study(benchmarks: &[Benchmark], budget: usize, seed: u64) -> Vec<CoreModelRow> {
    let cfg = PipelineConfig::paper();
    benchmarks
        .iter()
        .map(|b| {
            let trace = b.trace(budget, seed);
            let mut bc1 = build_design(DesignKind::Bc);
            let mut cpp1 = build_design(DesignKind::Cpp);
            let ooo = run_source(&trace, cpp1.as_mut(), &cfg).cycles as f64
                / run_source(&trace, bc1.as_mut(), &cfg).cycles as f64;
            let mut bc2 = build_design(DesignKind::Bc);
            let mut cpp2 = build_design(DesignKind::Cpp);
            let inorder = run_inorder(&trace, cpp2.as_mut(), &cfg).cycles as f64
                / run_inorder(&trace, bc2.as_mut(), &cfg).cycles as f64;
            CoreModelRow {
                benchmark: b.full_name(),
                ooo,
                inorder,
            }
        })
        .collect()
}

/// Renders the core-model study.
pub fn render_core_model(rows: &[CoreModelRow]) -> String {
    let headers: Vec<String> = ["benchmark", "CPP/BC on OOO", "CPP/BC in-order"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.benchmark.clone(), pct(r.ooo), pct(r.inorder)])
        .collect();
    format!(
        "Extension F: CPP's relative execution time on an out-of-order vs a scalar in-order core (miss placement only pays where the core can overlap)
{}",
        render_table(&headers, &table)
    )
}

/// One row of the cache-size sensitivity sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivityRow {
    /// L1 size in KB (L2 scales 8× as in the paper's ratio).
    pub l1_kb: u32,
    /// BC cycles at this size (absolute, for context).
    pub bc_cycles: u64,
    /// CPP cycles / BC cycles.
    pub cpp_time: f64,
    /// CPP memory traffic / BC memory traffic.
    pub cpp_traffic: f64,
}

/// Extension G: cache-size sensitivity of CPP's benefit on one benchmark —
/// the classic sweep the paper omits (it fixes 8 KB / 64 KB).
pub fn size_sensitivity(benchmark: &Benchmark, budget: usize, seed: u64) -> Vec<SensitivityRow> {
    use ccp_cache::geometry::CacheGeometry;
    let trace = benchmark.trace(budget, seed);
    let cfg = PipelineConfig::paper();
    [4u32, 8, 16, 32]
        .iter()
        .map(|&kb| {
            let mk = |design: DesignKind| {
                let mut hc = HierarchyConfig::paper(design);
                hc.l1 = CacheGeometry::new(kb * 1024, hc.l1.assoc(), 64);
                hc.l2 = CacheGeometry::new(8 * kb * 1024, hc.l2.assoc(), 128);
                build_design_scheme(hc, SchemeKind::Cpp)
            };
            let mut bc = mk(DesignKind::Bc);
            let sb = run_source(&trace, bc.as_mut(), &cfg);
            let mut cpp = mk(DesignKind::Cpp);
            let sc = run_source(&trace, cpp.as_mut(), &cfg);
            SensitivityRow {
                l1_kb: kb,
                bc_cycles: sb.cycles,
                cpp_time: sc.cycles as f64 / sb.cycles as f64,
                cpp_traffic: sc.hierarchy.memory_traffic_halfwords() as f64
                    / sb.hierarchy.memory_traffic_halfwords().max(1) as f64,
            }
        })
        .collect()
}

/// Renders the sensitivity sweep.
pub fn render_sensitivity(benchmark: &str, rows: &[SensitivityRow]) -> String {
    let headers: Vec<String> = ["L1 size", "BC cycles", "CPP time", "CPP traffic"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} KB", r.l1_kb),
                r.bc_cycles.to_string(),
                pct(r.cpp_time),
                pct(r.cpp_traffic),
            ]
        })
        .collect();
    format!(
        "Extension G: cache-size sensitivity on {benchmark} (L2 scales 8x L1)
{}",
        render_table(&headers, &table)
    )
}

/// Convenience: the default benchmark set for extension experiments (a
/// spread across the compressibility range, kept small because each row is
/// 4–5 full simulations).
pub fn extension_benchmarks() -> Vec<Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| {
            [
                "olden.health",
                "olden.treeadd",
                "olden.em3d",
                "spec95.130.li",
                "spec95.129.compress",
                "spec2000.300.twolf",
            ]
            .contains(&b.full_name().as_str())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_trace::benchmark_by_name;

    fn benches() -> Vec<Benchmark> {
        vec![
            benchmark_by_name("treeadd").unwrap(),
            benchmark_by_name("129.compress").unwrap(),
        ]
    }

    #[test]
    fn stride_rows_are_normalized_sanely() {
        let rows = stride_comparison(&benches(), 10_000, 3);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.cpp_cycles > 0.3 && r.cpp_cycles < 1.2, "{r:?}");
            assert!(r.spt_cycles > 0.3 && r.spt_cycles < 1.2, "{r:?}");
        }
        assert!(!render_stride(&rows).is_empty());
    }

    #[test]
    fn spt_beats_bc_on_strided_pointer_free_code() {
        // treeadd's DFS allocation gives its traversal near-constant stride
        // along left spines; SPT should at least not lose to BC.
        let rows = stride_comparison(&[benchmark_by_name("treeadd").unwrap()], 20_000, 3);
        assert!(rows[0].spt_cycles <= 1.01, "{:?}", rows[0]);
    }

    #[test]
    fn fvc_comparison_covers_both_schemes() {
        let rows = fvc_comparison(&benches(), 10_000, 3);
        for r in &rows {
            assert!(r.paper_bits_per_word >= 17.0 && r.paper_bits_per_word <= 33.0);
            assert!(r.fvc_bits_per_word >= 6.0);
            assert!((0.0..=1.0).contains(&r.paper_coverage));
            assert!((0.0..=1.0).contains(&r.fvc_coverage));
        }
        assert!(!render_fvc(&rows).is_empty());
    }

    #[test]
    fn paper_scheme_beats_fvc_on_pointer_streams() {
        // Pointers are unique values: a frequent-value table cannot learn
        // them, the significance scheme compresses them by construction.
        let rows = fvc_comparison(&[benchmark_by_name("treeadd").unwrap()], 15_000, 3);
        assert!(
            rows[0].paper_coverage > rows[0].fvc_coverage,
            "{:?}",
            rows[0]
        );
    }

    #[test]
    fn cpi_stack_fractions_sum_to_one() {
        let rows = cpi_stacks(&[benchmark_by_name("mst").unwrap()], 8_000, 3);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            let sum = r.stack.busy + r.stack.frontend + r.stack.memory + r.stack.core;
            assert!((sum - 1.0).abs() < 1e-9, "{r:?}");
        }
        assert!(!render_cpi(&rows).is_empty());
    }

    #[test]
    fn extension_benchmark_set_is_six() {
        assert_eq!(extension_benchmarks().len(), 6);
    }

    #[test]
    fn conflict_rows_are_sane() {
        let rows = conflict_comparison(&[benchmark_by_name("perimeter").unwrap()], 15_000, 3);
        let r = &rows[0];
        assert!(r.hac > 0.2 && r.hac <= 1.1, "{r:?}");
        assert!(r.vc > 0.2 && r.vc <= 1.1, "{r:?}");
        assert!(r.cpp > 0.2 && r.cpp <= 1.1, "{r:?}");
        assert!(
            r.cpp_cwb_traffic <= 1.0,
            "compressed write-backs cannot raise traffic: {r:?}"
        );
        assert!(!render_conflict(&rows).is_empty());
    }

    #[test]
    fn transition_study_validates_section_3_3() {
        let rows = transition_study(
            &[
                benchmark_by_name("health").unwrap(),
                benchmark_by_name("treeadd").unwrap(),
            ],
            20_000,
            3,
        );
        for r in &rows {
            assert!(r.stores > 0, "{r:?}");
            assert!(r.grow + r.shrink <= r.stores);
            assert!(
                r.flip_rate < 0.2,
                "the paper's assumption should hold on pointer workloads: {r:?}"
            );
        }
        assert!(!render_transitions(&rows).is_empty());
    }

    #[test]
    fn core_model_rows_are_ratios() {
        let rows = core_model_study(&[benchmark_by_name("treeadd").unwrap()], 12_000, 3);
        let r = &rows[0];
        assert!(r.ooo > 0.3 && r.ooo <= 1.1, "{r:?}");
        assert!(r.inorder > 0.3 && r.inorder <= 1.1, "{r:?}");
        assert!(!render_core_model(&rows).is_empty());
    }

    #[test]
    fn size_sensitivity_sweeps_four_points() {
        let rows = size_sensitivity(&benchmark_by_name("health").unwrap(), 12_000, 3);
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows.iter().map(|r| r.l1_kb).collect::<Vec<_>>(),
            [4, 8, 16, 32]
        );
        // Bigger caches can only help the absolute baseline.
        assert!(rows[3].bc_cycles <= rows[0].bc_cycles);
        for r in &rows {
            assert!(r.cpp_time > 0.3 && r.cpp_time < 1.2, "{r:?}");
        }
        assert!(!render_sensitivity("olden.health", &rows).is_empty());
    }

    #[test]
    fn compressed_writebacks_reduce_traffic_on_store_heavy_work() {
        let b = benchmark_by_name("300.twolf").unwrap();
        let trace = b.trace(30_000, 3);
        let mut plain = build_design(DesignKind::Cpp);
        let s1 = run_source(&trace, plain.as_mut(), &PipelineConfig::paper());
        let mut cfg = HierarchyConfig::paper(DesignKind::Cpp);
        cfg.compress_writebacks = true;
        let mut cwb = build_design_scheme(cfg, SchemeKind::Cpp);
        let s2 = run_source(&trace, cwb.as_mut(), &PipelineConfig::paper());
        assert_eq!(s1.cycles, s2.cycles, "the knob only changes bus accounting");
        assert!(
            s2.hierarchy.mem_bus.out_halfwords < s1.hierarchy.mem_bus.out_halfwords,
            "small-value stores must shrink write-backs: {} vs {}",
            s2.hierarchy.mem_bus.out_halfwords,
            s1.hierarchy.mem_bus.out_halfwords
        );
    }
}
