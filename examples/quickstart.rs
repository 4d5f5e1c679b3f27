//! Quickstart: build the paper's CPP cache, run one workload, and compare
//! it against the baseline cache on the same trace.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ccp::prelude::*;

fn main() {
    // 1. Pick a workload. `olden.health` is the paper's own motivating
    //    example: linked patient lists whose nodes mix pointers, small
    //    counters, and one large payload field.
    let bench = benchmark_by_name("olden.health").expect("registered benchmark");
    let trace = bench.trace(100_000, 42);
    println!(
        "workload {}: {} instructions ({} loads / {} stores)",
        trace.name,
        trace.len(),
        trace.mix().loads,
        trace.mix().stores
    );

    // 2. Run it through the 4-issue out-of-order pipeline, once per design.
    let cfg = PipelineConfig::paper();
    let mut results = Vec::new();
    for kind in DesignKind::ALL {
        let mut cache = build_design(kind);
        let stats = run_source(&trace, cache.as_mut(), &cfg);
        results.push((kind, stats));
    }

    // 3. Compare: cycles, misses, memory traffic — normalized to BC, the
    //    way every figure in the paper reports them.
    let base = results
        .iter()
        .find(|(k, _)| *k == DesignKind::Bc)
        .map(|(_, s)| (s.cycles, s.hierarchy.memory_traffic_halfwords()))
        .expect("BC present");
    println!(
        "\n{:6} {:>10} {:>8} {:>10} {:>9} {:>9}",
        "design", "cycles", "rel", "L1 misses", "traffic", "rel"
    );
    for (kind, s) in &results {
        println!(
            "{:6} {:>10} {:>7.1}% {:>10} {:>9} {:>8.1}%",
            kind.name(),
            s.cycles,
            100.0 * s.cycles as f64 / base.0 as f64,
            s.hierarchy.l1.misses(),
            s.hierarchy.memory_traffic_halfwords(),
            100.0 * s.hierarchy.memory_traffic_halfwords() as f64 / base.1 as f64,
        );
    }

    // 4. CPP's unique statistics: partial-line prefetching at work.
    let (_, cpp) = results
        .iter()
        .find(|(k, _)| *k == DesignKind::Cpp)
        .expect("CPP present");
    println!(
        "\nCPP activity: {} words prefetched into freed half-slots, \
         {} affiliated-location hits, {} promotions, {} victims parked",
        cpp.hierarchy.prefetches_issued,
        cpp.hierarchy.l1.affiliated_hits,
        cpp.hierarchy.promotions,
        cpp.hierarchy.parked_lines,
    );
}
