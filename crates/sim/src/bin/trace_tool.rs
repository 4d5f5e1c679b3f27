//! `trace-tool` — generate, inspect, and profile workload trace files
//! (the `.ccpt` container from `ccp_trace::serialize`).
//!
//! ```text
//! trace-tool gen <benchmark> <out.ccpt> [--budget N] [--seed S]
//! trace-tool info <file.ccpt>
//! trace-tool profile <file.ccpt>
//! trace-tool run <file.ccpt> [--design BC|BCC|HAC|BCP|CPP]
//! trace-tool workgen [--spec S | model flags...] [--seed S] [--budget N]
//! trace-tool chaos [--workload NAME|SPEC] [--all-benchmarks]
//!                  [--budget N] [--seed S]
//! ```
//!
//! `workgen` streams a synthetic workload (never materializing it) and
//! prints its instruction mix, its measured compressibility profile, and
//! functional BC/CPP traffic — deterministically: the same flags always
//! print the same bytes.
//!
//! `chaos` runs the fault-injection harness: it replays each workload
//! through a CPP hierarchy, asserts the exhaustive invariant checker is
//! silent on the clean state (no false positives), then injects every
//! metadata-corruption class and asserts each is detected. Exit 0 only
//! when every class on every workload is caught.

use ccp_cache::DesignKind;
use ccp_compress::profile::ValueProfile;
use ccp_pipeline::{run_source, PipelineConfig};
use ccp_sim::sweep::Workload;
use ccp_sim::{build_design, chaos, fastsim};
use ccp_trace::{all_benchmarks, benchmark_by_name, profile_source_values, Trace, TraceSource};
use ccp_workgen::{SynthSource, WorkgenSpec};
use std::path::Path;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace-tool gen <benchmark> <out.ccpt> [--budget N] [--seed S]\n  \
         trace-tool info <file.ccpt>\n  trace-tool profile <file.ccpt>\n  \
         trace-tool run <file.ccpt> [--design NAME]\n  \
         trace-tool workgen [--spec STR] [--addr seq|stride|uniform|zipf|chase]\n               \
         [--small-value F] [--pointer F] [--entropy F] [--mem F] [--store-ratio F]\n               \
         [--branch F] [--falu F] [--footprint W] [--stride W] [--zipf-skew K]\n               \
         [--nodes N] [--seed S] [--budget N]\n  \
         trace-tool chaos [--workload NAME|SPEC] [--all-benchmarks] [--budget N] [--seed S]"
    );
    exit(2);
}

/// The `chaos` subcommand: invariant-detection proof over one workload or
/// the whole benchmark suite.
fn run_chaos_cmd(args: &[String]) {
    let mut workloads: Vec<String> = Vec::new();
    let mut budget = 20_000usize;
    let mut seed = 1u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all-benchmarks" => {
                workloads = all_benchmarks().iter().map(|b| b.full_name()).collect();
                i += 1;
            }
            "--workload" | "--budget" | "--seed" => {
                let flag = args[i].as_str();
                let val = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    exit(2);
                });
                match flag {
                    "--workload" => workloads.push(val.clone()),
                    "--budget" => {
                        budget = val.parse().unwrap_or_else(|e| {
                            eprintln!("bad --budget: {e}");
                            exit(2);
                        })
                    }
                    "--seed" => {
                        seed = val.parse().unwrap_or_else(|e| {
                            eprintln!("bad --seed: {e}");
                            exit(2);
                        })
                    }
                    // The outer arm admits exactly the three flags above;
                    // falling through to usage keeps this panic-free.
                    _ => usage(),
                }
                i += 2;
            }
            _ => usage(),
        }
    }
    if workloads.is_empty() {
        workloads.push("health".to_string());
    }

    let mut all_passed = true;
    for name in &workloads {
        let workload = match Workload::by_name(name) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("error [{}]: {e}", e.class());
                exit(2);
            }
        };
        match chaos::run_chaos(&workload, budget, seed) {
            Ok(report) => {
                print!("{}", report.render());
                all_passed &= report.passed();
            }
            Err(e) => {
                eprintln!("error [{}]: {e}", e.class());
                all_passed = false;
            }
        }
    }
    if all_passed {
        println!("chaos: every fault class detected, no false positives");
    } else {
        eprintln!("chaos: FAILED (escaped fault or false positive above)");
        exit(1);
    }
}

/// Builds a workgen spec from `workgen` subcommand flags. Flags translate
/// to the spec's `key=value` text form, so `--spec` and individual flags
/// compose (later flags override).
fn parse_workgen(args: &[String]) -> (WorkgenSpec, u64, u64) {
    let mut pairs: Vec<String> = Vec::new();
    let mut seed = 1u64;
    let mut budget = 1_000_000u64;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let val = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            exit(2);
        });
        match flag {
            "--spec" => pairs.push(val.strip_prefix("workgen:").unwrap_or(val).to_string()),
            "--addr" => pairs.push(format!("addr={val}")),
            "--small-value" => pairs.push(format!("small={val}")),
            "--pointer" => pairs.push(format!("ptr={val}")),
            "--entropy" => pairs.push(format!("entropy={val}")),
            "--mem" => pairs.push(format!("mem={val}")),
            "--store-ratio" => pairs.push(format!("store={val}")),
            "--branch" => pairs.push(format!("branch={val}")),
            "--falu" => pairs.push(format!("falu={val}")),
            "--footprint" => pairs.push(format!("footprint={val}")),
            "--stride" => pairs.push(format!("stride={val}")),
            "--zipf-skew" => pairs.push(format!("skew={val}")),
            "--nodes" => pairs.push(format!("nodes={val}")),
            "--seed" => {
                seed = val.parse().unwrap_or_else(|e| {
                    eprintln!("bad --seed: {e}");
                    exit(2);
                })
            }
            "--budget" => {
                budget = val.parse().unwrap_or_else(|e| {
                    eprintln!("bad --budget: {e}");
                    exit(2);
                })
            }
            _ => usage(),
        }
        i += 2;
    }
    let spec = WorkgenSpec::parse(&pairs.join(",")).unwrap_or_else(|e| {
        eprintln!("bad workgen spec: {e}");
        exit(1);
    });
    (spec, seed, budget)
}

fn run_workgen(args: &[String]) {
    let (spec, seed, budget) = parse_workgen(args);
    let source = SynthSource::new(spec, seed, budget);
    println!("workload:     {}", source.name());
    println!("seed/budget:  {seed} / {budget}");
    let m = source.mix();
    println!(
        "mix:          {} ialu / {} falu / {} loads / {} stores / {} branches",
        m.ialu, m.falu, m.loads, m.stores, m.branches
    );
    let mut p = ValueProfile::new();
    profile_source_values(&source, |v, a| p.record(v, a));
    println!(
        "profile:      {} accessed values — {:.2}% small, {:.2}% pointer, {:.2}% compressible",
        p.total(),
        100.0 * p.small_fraction(),
        100.0 * p.pointer_fraction(),
        100.0 * p.compressible_fraction()
    );
    for design in [DesignKind::Bc, DesignKind::Cpp] {
        let mut cache = build_design(design);
        let s = fastsim::run_functional_source(&source, cache.as_mut(), 0);
        println!(
            "{:<4} (func):  L1 miss {:.3}%, L2 miss {:.3}%, traffic {} half-words",
            design.name(),
            100.0 * s.hierarchy.l1.miss_rate(),
            100.0 * s.hierarchy.l2.miss_rate(),
            s.hierarchy.memory_traffic_halfwords()
        );
    }
}

fn load(path: &str) -> Trace {
    match Trace::load(Path::new(path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error loading {path}: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            if args.len() < 3 {
                usage();
            }
            let bench = benchmark_by_name(&args[1]).unwrap_or_else(|| {
                eprintln!("unknown benchmark {:?}", args[1]);
                exit(1);
            });
            let mut budget = 400_000usize;
            let mut seed = 1u64;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--budget" => {
                        budget = args[i + 1].parse().unwrap_or_else(|e| {
                            eprintln!("bad --budget: {e}");
                            exit(2);
                        });
                        i += 2;
                    }
                    "--seed" => {
                        seed = args[i + 1].parse().unwrap_or_else(|e| {
                            eprintln!("bad --seed: {e}");
                            exit(2);
                        });
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            let t = bench.trace(budget, seed);
            if let Err(e) = t.save(Path::new(&args[2])) {
                eprintln!("error writing {}: {e}", args[2]);
                exit(1);
            }
            println!(
                "wrote {} ({} instructions, {} resident pages)",
                args[2],
                t.len(),
                t.initial_mem.resident_pages()
            );
        }
        Some("info") => {
            if args.len() != 2 {
                usage();
            }
            let t = load(&args[1]);
            let m = t.mix();
            println!("name:         {}", t.name);
            println!("instructions: {}", t.len());
            println!(
                "mix:          {} ialu / {} falu / {} loads / {} stores / {} branches",
                m.ialu, m.falu, m.loads, m.stores, m.branches
            );
            println!(
                "memory image: {} pages ({} KB resident)",
                t.initial_mem.resident_pages(),
                t.initial_mem.resident_pages() * 4
            );
            println!(
                "validation:   {}",
                match t.validate() {
                    Ok(()) => "ok".to_string(),
                    Err(e) => format!("BROKEN: {e}"),
                }
            );
        }
        Some("profile") => {
            if args.len() != 2 {
                usage();
            }
            let t = load(&args[1]);
            let mut p = ValueProfile::new();
            t.profile_values(|v, a| p.record(v, a));
            println!(
                "{}: {} accessed values — {:.1}% small, {:.1}% pointer, {:.1}% compressible",
                t.name,
                p.total(),
                100.0 * p.small_fraction(),
                100.0 * p.pointer_fraction(),
                100.0 * p.compressible_fraction()
            );
        }
        Some("run") => {
            if args.len() < 2 {
                usage();
            }
            let t = load(&args[1]);
            let design = if args.len() >= 4 && args[2] == "--design" {
                DesignKind::from_name(&args[3]).unwrap_or_else(|| {
                    eprintln!("unknown design {:?}", args[3]);
                    exit(1);
                })
            } else {
                DesignKind::Cpp
            };
            let mut cache = build_design(design);
            let s = run_source(&t, cache.as_mut(), &PipelineConfig::paper());
            println!(
                "{} on {}: {} cycles (IPC {:.3}), L1 miss {:.2}%, traffic {} half-words",
                t.name,
                design.name(),
                s.cycles,
                s.ipc(),
                100.0 * s.hierarchy.l1.miss_rate(),
                s.hierarchy.memory_traffic_halfwords()
            );
        }
        Some("workgen") => run_workgen(&args[1..]),
        Some("chaos") => run_chaos_cmd(&args[1..]),
        _ => usage(),
    }
}
