//! Extension F as a runnable walkthrough: the paper's §4.4 argument says
//! CPP wins by moving misses *off the dependence chain*, which only pays
//! when the core can overlap them. Compare CPP's benefit on the paper's
//! 4-issue out-of-order core against a scalar in-order (stall-on-use) core.
//!
//! ```text
//! cargo run --release --example inorder_vs_ooo [budget]
//! ```

use ccp::pipeline::run_inorder;
use ccp::prelude::*;

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("budget must be a number"))
        .unwrap_or(150_000);
    let cfg = PipelineConfig::paper();

    println!("CPP execution time relative to BC, per core model ({budget} instructions)\n");
    println!(
        "{:22} {:>12} {:>12} {:>24}",
        "benchmark", "OOO", "in-order", "where the win comes from"
    );
    for name in [
        "olden.health",
        "olden.treeadd",
        "spec95.130.li",
        "spec2000.300.twolf",
        "spec95.129.compress",
    ] {
        let bench = benchmark_by_name(name).expect("benchmark");
        let trace = bench.trace(budget, 7);

        let mut bc = build_design(DesignKind::Bc);
        let mut cpp = build_design(DesignKind::Cpp);
        let ooo = run_source(&trace, cpp.as_mut(), &cfg).cycles as f64
            / run_source(&trace, bc.as_mut(), &cfg).cycles as f64;

        let mut bc2 = build_design(DesignKind::Bc);
        let mut cpp2 = build_design(DesignKind::Cpp);
        let ino = run_inorder(&trace, cpp2.as_mut(), &cfg).cycles as f64
            / run_inorder(&trace, bc2.as_mut(), &cfg).cycles as f64;

        let verdict = if ino < ooo - 0.01 {
            "miss count (latency-serial)"
        } else if ooo < ino - 0.01 {
            "miss placement (needs OOO)"
        } else {
            "both equally"
        };
        println!(
            "{:22} {:>11.1}% {:>11.1}% {:>24}",
            name,
            100.0 * ooo,
            100.0 * ino,
            verdict
        );
    }
    println!(
        "\nWhen CPP's gain is larger in-order, it avoided misses outright \
         (each saved L2 trip\nis fully exposed on a scalar core); when it is \
         larger out-of-order, CPP mainly\nrelocated misses to loads the \
         window can overlap — the paper's Figure 14 story."
    );
}
