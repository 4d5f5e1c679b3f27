//! `inspect` — dumps the full per-design run statistics for one benchmark.
//!
//! ```text
//! inspect <benchmark> [--budget N] [--seed S] [--json FILE]
//! ```
//!
//! Useful for understanding *why* a figure row looks the way it does:
//! prints misses, hit sources, prefetch/promotion/parking activity, bus
//! traffic, IPC, and the ready-queue statistic per design. `--json FILE`
//! additionally writes the same data as one atomic JSON document (cell
//! shape identical to `ccp-sim sweep --json` / `ccp-client submit --json`).
//!
//! EXIT CODE: 0 ok · 1 write failure · 2 usage error

use ccp_cache::DesignKind;
use ccp_schemes::SchemeKind;
use ccp_sim::checkpoint::stats_to_json;
use ccp_sim::json::{write_atomic, Json};
use ccp_sim::sweep::run_cell_source_scheme;
use ccp_trace::benchmark_by_name;

const USAGE: &str = "usage: inspect <benchmark> [--budget N] [--seed S] [--json FILE]";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| usage("missing benchmark"));
    if name == "--help" || name == "-h" {
        println!("{USAGE}");
        return;
    }
    let mut budget = 300_000usize;
    let mut seed = 1u64;
    let mut json_path: Option<std::path::PathBuf> = None;
    while let Some(a) = args.next() {
        let mut need = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--budget" => {
                budget = need("--budget")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --budget: {e}")));
            }
            "--seed" => {
                seed = need("--seed")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --seed: {e}")));
            }
            "--json" => json_path = Some(need("--json").into()),
            other => usage(&format!("unknown arg {other:?}")),
        }
    }
    let b =
        benchmark_by_name(&name).unwrap_or_else(|| usage(&format!("unknown benchmark {name:?}")));
    let trace = b.trace(budget, seed);
    let mix = trace.mix();
    println!(
        "{}: {} insts ({} loads, {} stores, {} branches)",
        b.full_name(),
        mix.total(),
        mix.loads,
        mix.stores,
        mix.branches
    );
    let mut cells: Vec<(&'static str, Json)> = Vec::new();
    for d in DesignKind::ALL {
        let s = run_cell_source_scheme(&trace, d, SchemeKind::Cpp, false);
        let h = s.hierarchy;
        println!("\n== {} ==", d.name());
        println!(
            "  cycles {:>10}  ipc {:.3}  mispredicts {}  icache misses {}",
            s.cycles,
            s.ipc(),
            s.branch_mispredicts,
            s.icache_misses
        );
        println!(
            "  L1: {} acc, {} miss ({:.2}%), {} partial, {} affil hits, {} pb hits",
            h.l1.accesses(),
            h.l1.misses(),
            100.0 * h.l1.miss_rate(),
            h.l1.partial_line_misses,
            h.l1.affiliated_hits,
            h.l1.prefetch_buffer_hits
        );
        println!(
            "  L2: {} acc, {} miss ({:.2}%), {} partial, {} affil hits, {} pb hits",
            h.l2.accesses(),
            h.l2.misses(),
            100.0 * h.l2.miss_rate(),
            h.l2.partial_line_misses,
            h.l2.affiliated_hits,
            h.l2.prefetch_buffer_hits
        );
        println!(
            "  mem bus: {} hw in ({} txns), {} hw out ({} txns)",
            h.mem_bus.in_halfwords,
            h.mem_bus.in_transactions,
            h.mem_bus.out_halfwords,
            h.mem_bus.out_transactions
        );
        println!(
            "  prefetch: {} issued, {} discarded; {} promotions, {} parked, {} comp-evict",
            h.prefetches_issued,
            h.prefetches_discarded,
            h.promotions,
            h.parked_lines,
            h.compressibility_evictions
        );
        println!(
            "  ready-q in miss cycles: {:.2} over {} cycles; forwarded loads {}",
            s.avg_ready_in_miss_cycles(),
            s.miss_cycles,
            s.forwarded_loads
        );
        cells.push((d.name(), stats_to_json(&s)));
    }
    if let Some(path) = json_path {
        let doc = Json::obj([
            ("benchmark", Json::Str(b.full_name())),
            ("budget", Json::Num(budget as f64)),
            ("seed", Json::Num(seed as f64)),
            ("designs", Json::obj(cells)),
        ]);
        if let Err(e) = write_atomic(&path, &doc.to_string()) {
            eprintln!("inspect: {e}");
            std::process::exit(1);
        }
    }
}
