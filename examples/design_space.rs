//! Design-space exploration beyond the paper's fixed configuration:
//! sweeps the BCP prefetch-buffer sizes and the branch predictor (the
//! paper's bimod vs gshare), on a subset of workloads — the knobs
//! DESIGN.md calls out for ablation.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use ccp::pipeline::PredictorKind;
use ccp::prelude::*;

fn run(cfg: HierarchyConfig, trace: &Trace) -> RunStats {
    let mut cache = build_design_scheme(cfg, SchemeKind::Cpp);
    run_source(trace, cache.as_mut(), &PipelineConfig::paper())
}

fn main() {
    let budget = 150_000;
    let benches = ["olden.health", "olden.treeadd", "spec2000.300.twolf"];

    println!("== BCP prefetch-buffer sizing (paper: 8-entry L1 / 32-entry L2) ==\n");
    println!(
        "{:20} {:>6} {:>6} {:>12} {:>14}",
        "benchmark", "L1 PB", "L2 PB", "cycles", "traffic (hw)"
    );
    for name in benches {
        let bench = benchmark_by_name(name).expect("benchmark");
        let trace = bench.trace(budget, 9);
        for (l1e, l2e) in [(2u32, 8u32), (8, 32), (32, 128)] {
            let mut cfg = HierarchyConfig::paper(DesignKind::Bcp);
            cfg.l1_prefetch_entries = l1e;
            cfg.l2_prefetch_entries = l2e;
            let s = run(cfg, &trace);
            println!(
                "{:20} {:>6} {:>6} {:>12} {:>14}",
                name,
                l1e,
                l2e,
                s.cycles,
                s.hierarchy.memory_traffic_halfwords()
            );
        }
    }

    println!("\n== Branch predictor (paper: bimod; cycles, mispredicts in parentheses) ==\n");
    println!(
        "{:20} {:>8} {:>16} {:>16}",
        "benchmark", "pred", "BC", "CPP"
    );
    for name in ["olden.bisort", "olden.mst", "spec95.099.go"] {
        let bench = benchmark_by_name(name).expect("benchmark");
        let trace = bench.trace(budget, 9);
        for kind in [PredictorKind::Bimod, PredictorKind::Gshare] {
            let mut pipeline = PipelineConfig::paper();
            pipeline.predictor = kind;
            let [bc, cpp] = [DesignKind::Bc, DesignKind::Cpp].map(|d| {
                let mut cache = build_design(d);
                let s = run_source(&trace, cache.as_mut(), &pipeline);
                format!("{} ({})", s.cycles, s.branch_mispredicts)
            });
            println!(
                "{:20} {:>8} {:>16} {:>16}",
                name,
                format!("{kind:?}"),
                bc,
                cpp
            );
        }
    }

    println!(
        "\nBigger prefetch buffers buy BCP coverage at the same traffic \
         cost. The\npredictor's mispredicts are the same \
         for both designs, so a shift in CPP's relative\ncycles between its \
         rows is memory latency the front end no longer hides."
    );
}
