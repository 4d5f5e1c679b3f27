//! End-to-end integration tests spanning all crates: workload generation →
//! pipeline → cache designs → experiment harness, checking the paper's
//! comparative claims on real (small-budget) runs.

use ccp::prelude::*;

fn sweep(names: &[&str], budget: usize) -> ccp::sim::Sweep {
    let mut cfg = SweepConfig::new(budget, 11);
    cfg.workloads = names.iter().map(|n| n.to_string()).collect();
    cfg.threads = 4;
    run_sweep(&cfg).expect("sweep")
}

#[test]
fn bcc_never_exceeds_bc_traffic_and_matches_its_timing() {
    let s = sweep(&["health", "129.compress", "treeadd"], 20_000);
    for b in &s.benchmarks {
        let bc = s.cell(b, DesignKind::Bc);
        let bcc = s.cell(b, DesignKind::Bcc);
        assert_eq!(bc.cycles, bcc.cycles, "{b}: BCC must not change timing");
        assert!(
            bcc.hierarchy.memory_traffic_halfwords() <= bc.hierarchy.memory_traffic_halfwords(),
            "{b}: compressed bus cannot move more data"
        );
        assert_eq!(bc.hierarchy.l1.misses(), bcc.hierarchy.l1.misses());
    }
}

#[test]
fn cpp_never_pays_more_fetch_bandwidth_per_miss_than_bc() {
    let s = sweep(&["health", "perimeter", "300.twolf"], 20_000);
    for b in &s.benchmarks {
        let cpp = &s.cell(b, DesignKind::Cpp).hierarchy;
        // One 32-word line per fetch transaction, exactly.
        assert_eq!(
            cpp.mem_bus.in_halfwords,
            cpp.mem_bus.in_transactions * 64,
            "{b}: CPP fetch bandwidth"
        );
    }
}

#[test]
fn cpp_prefetches_on_compressible_workloads() {
    let s = sweep(&["130.li", "197.parser"], 20_000);
    for b in &s.benchmarks {
        let cpp = &s.cell(b, DesignKind::Cpp).hierarchy;
        assert!(
            cpp.prefetches_issued > 100,
            "{b}: pointer workloads must trigger partial-line prefetch"
        );
        assert!(
            cpp.l1.affiliated_hits > 0,
            "{b}: prefetched words must get used"
        );
    }
}

#[test]
fn cpp_beats_bc_on_compressible_pointer_workloads() {
    let s = sweep(&["treeadd", "130.li", "300.twolf", "099.go"], 60_000);
    for b in &s.benchmarks {
        let bc = s.cell(b, DesignKind::Bc).cycles;
        let cpp = s.cell(b, DesignKind::Cpp).cycles;
        assert!(
            cpp < bc,
            "{b}: CPP ({cpp}) should beat BC ({bc}) on compressible workloads"
        );
    }
}

#[test]
fn incompressible_workloads_degrade_gracefully() {
    // On the low-compressibility outlier CPP finds little to prefetch but
    // must stay within a small overhead of the baseline.
    let s = sweep(&["129.compress"], 60_000);
    let b = &s.benchmarks[0];
    let bc = s.cell(b, DesignKind::Bc).cycles as f64;
    let cpp = s.cell(b, DesignKind::Cpp).cycles as f64;
    assert!(
        cpp <= bc * 1.05,
        "CPP must not fall apart on incompressible data: {cpp} vs {bc}"
    );
}

#[test]
fn bcp_reduces_misses_but_costs_traffic_somewhere() {
    let s = sweep(&["mst", "perimeter", "300.twolf"], 40_000);
    let mut some_traffic_increase = false;
    for b in &s.benchmarks {
        let bc = s.cell(b, DesignKind::Bc);
        let bcp = s.cell(b, DesignKind::Bcp);
        let bc_all = bc.hierarchy.l1.misses();
        let bcp_all = bcp.hierarchy.l1.misses();
        assert!(
            bcp_all <= bc_all,
            "{b}: prefetch-buffer hits must not count as misses"
        );
        if bcp.hierarchy.memory_traffic_halfwords() > bc.hierarchy.memory_traffic_halfwords() {
            some_traffic_increase = true;
        }
    }
    assert!(
        some_traffic_increase,
        "pointer-chasing workloads must show BCP's wasted prefetch traffic"
    );
}

#[test]
fn all_designs_agree_on_architectural_state() {
    // After the same trace, every hierarchy's functional memory is
    // identical word for word over the workload's footprint.
    let bench = benchmark_by_name("olden.bisort").expect("benchmark");
    let trace = bench.trace(15_000, 5);
    let cfg = PipelineConfig::paper();
    let mut finals: Vec<(String, MainMemory)> = Vec::new();
    for kind in DesignKind::ALL {
        let mut cache = build_design(kind);
        run_source(&trace, cache.as_mut(), &cfg);
        finals.push((kind.name().to_string(), cache.mem().clone()));
    }
    let (ref_name, ref_mem) = &finals[0];
    for (name, mem) in &finals[1..] {
        for i in 0..(1u32 << 19) {
            let a = 0x1000_0000 + i * 4;
            assert_eq!(
                mem.read(a),
                ref_mem.read(a),
                "{name} diverged from {ref_name} at {a:#x}"
            );
        }
    }
}

#[test]
fn cpp_invariants_hold_after_full_workload_runs() {
    use ccp::cpp::CppHierarchy;
    let cfg = PipelineConfig::paper();
    for name in ["health", "130.li", "129.compress", "tsp"] {
        let bench = benchmark_by_name(name).expect("benchmark");
        let trace = bench.trace(15_000, 3);
        let mut cpp = CppHierarchy::paper();
        run_source(&trace, &mut cpp, &cfg);
        cpp.check_invariants()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn figure_pipeline_is_reproducible_end_to_end() {
    // Same seed + budget ⇒ bit-identical figures.
    let s1 = sweep(&["mst"], 10_000);
    let s2 = sweep(&["mst"], 10_000);
    let f1 = ccp::sim::experiments::figure10(&s1);
    let f2 = ccp::sim::experiments::figure10(&s2);
    assert_eq!(f1.rows, f2.rows);
}

#[test]
fn importance_decreases_under_cpp_for_pointer_chases() {
    // Figure 14's qualitative claim on a strongly chase-bound workload.
    let mut cfg = SweepConfig::new(40_000, 11);
    cfg.workloads = vec!["treeadd".into()];
    cfg.threads = 4;
    let normal = run_sweep(&cfg).expect("sweep");
    cfg.halved_miss_penalty = true;
    let halved = run_sweep(&cfg).expect("sweep");
    let fig = ccp::sim::experiments::figure14(&normal, &halved);
    let bc_col = fig.designs.iter().position(|d| d == "BC").unwrap();
    let cpp_col = fig.designs.iter().position(|d| d == "CPP").unwrap();
    let (_, vals) = &fig.rows[0];
    assert!(
        vals[cpp_col] < vals[bc_col],
        "CPP should lower miss importance: {} vs {}",
        vals[cpp_col],
        vals[bc_col]
    );
}
