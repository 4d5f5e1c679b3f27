//! Behavioural contracts of the synthetic workload suite: locks each
//! generator's memory behaviour to the regime its original occupies, so a
//! refactor that accidentally turns `health` into a streaming kernel (or
//! `compress` into a cache-resident one) fails loudly rather than silently
//! skewing every figure.

use ccp::prelude::*;
use ccp::sim::fastsim::run_functional;

/// BC miss rate of a benchmark at a fixed budget/seed.
fn bc_miss_rate(name: &str, budget: usize) -> f64 {
    let b = benchmark_by_name(name).expect(name);
    let t = b.trace(budget, 1);
    let mut c = build_design(DesignKind::Bc);
    run_functional(&t, c.as_mut(), 0).l1_miss_rate()
}

#[test]
fn pointer_chasing_workloads_miss_substantially() {
    for name in ["health", "treeadd", "mst", "em3d", "mcf", "tsp"] {
        let r = bc_miss_rate(name, 150_000);
        assert!(
            r > 0.02,
            "{name}: miss rate {r:.4} too low — footprint no longer stresses the caches"
        );
    }
}

#[test]
fn cache_resident_workloads_mostly_hit() {
    // go's board is a few KB — the original is famously not memory-bound.
    // The three 4 KB boards slightly exceed the 8 KB L1, so a few percent
    // of accesses spill to L2 — but nothing reaches memory in steady state.
    let r = bc_miss_rate("099.go", 150_000);
    assert!(r < 0.06, "go should be near-resident, got {r:.4}");
}

#[test]
fn no_workload_thrashes_pathologically() {
    for b in all_benchmarks() {
        let t = b.trace(100_000, 1);
        let mut c = build_design(DesignKind::Bc);
        let s = run_functional(&t, c.as_mut(), 0);
        assert!(
            s.l1_miss_rate() < 0.6,
            "{}: miss rate {:.3} looks like random thrash, not a program",
            b.full_name(),
            s.l1_miss_rate()
        );
    }
}

#[test]
fn footprints_exceed_the_l1() {
    for b in all_benchmarks() {
        let t = b.trace(50_000, 1);
        let resident_kb = t.initial_mem.resident_pages() * 4;
        assert!(
            resident_kb >= 4,
            "{}: initial image only {resident_kb} KB",
            b.full_name()
        );
    }
}

#[test]
fn branch_predictability_is_program_like() {
    // Real integer codes mispredict a few percent under bimod — not ~0%
    // (that would mean no data-dependent control) and not ~50% (that would
    // mean coin-flip branches everywhere).
    let cfg = PipelineConfig::paper();
    for name in ["health", "130.li", "129.compress", "300.twolf"] {
        let b = benchmark_by_name(name).unwrap();
        let t = b.trace(100_000, 1);
        let mut c = build_design(DesignKind::Bc);
        let s = run_source(&t, c.as_mut(), &cfg);
        let rate = s.branch_mispredicts as f64 / s.branches.max(1) as f64;
        assert!(
            (0.001..0.45).contains(&rate),
            "{name}: mispredict rate {rate:.3} outside the program-like band"
        );
    }
}

#[test]
fn icache_behaviour_is_loop_dominated() {
    // Generators reuse basic-block PCs, so steady state has almost no
    // I-misses.
    let cfg = PipelineConfig::paper();
    for name in ["treeadd", "181.mcf"] {
        let b = benchmark_by_name(name).unwrap();
        let t = b.trace(60_000, 1);
        let mut c = build_design(DesignKind::Bc);
        let s = run_source(&t, c.as_mut(), &cfg);
        assert!(
            s.icache_misses < 200,
            "{name}: {} I-misses — code layout is not loopy",
            s.icache_misses
        );
    }
}

#[test]
fn load_sources_histogram_is_consistent() {
    let b = benchmark_by_name("health").unwrap();
    let t = b.trace(60_000, 1);
    let mut c = build_design(DesignKind::Cpp);
    let s = run_source(&t, c.as_mut(), &PipelineConfig::paper());
    // Histogram covers exactly the non-forwarded loads.
    assert_eq!(s.load_sources.total() + s.forwarded_loads, s.loads);
    // On CPP with a compressible workload some loads come from the
    // affiliated location.
    assert!(s.load_sources.l1_affiliated > 0);
}

#[test]
fn value_streams_differ_across_seeds_but_not_shape() {
    use ccp::compress::profile::ValueProfile;
    use ccp::trace::profile_source_values;
    let b = benchmark_by_name("mst").unwrap();
    let mut fracs = Vec::new();
    for seed in [1u64, 2, 3] {
        let t = b.trace(40_000, seed);
        let mut p = ValueProfile::new();
        profile_source_values(&t, |v, a| p.record(v, a));
        fracs.push(p.compressible_fraction());
    }
    let min = fracs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = fracs.iter().cloned().fold(0.0, f64::max);
    assert!(
        max - min < 0.10,
        "compressibility should be a property of the program, not the seed: {fracs:?}"
    );
}
