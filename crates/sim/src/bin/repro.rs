//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [OPTIONS] [FIGURES...]
//!
//! FIGURES: fig3 fig9 fig10 fig11 fig12 fig13 fig14 fig15 all   (default: all)
//!          exta (stride) extb (FVC) extc (CPI stacks) extd (conflict)
//!          exte (transitions) extf (in-order core) extg (size sweep) ext
//!          workgen (compressibility sweep over a synthetic workload)
//!          compare-schemes (CPP vs BDI vs FPC cross-scheme study)
//!
//! OPTIONS:
//!   --budget N     instructions per benchmark        (default 400000)
//!   --seed S       workload generation seed          (default 1)
//!   --threads T    worker threads                    (default: all cores)
//!   --benchmarks L comma-separated benchmark subset  (default: all 14)
//!   --json FILE    additionally write results as JSON
//! ```

use ccp_errors::{SimError, SimResult};
use ccp_sim::experiments as exp;
use ccp_sim::extensions as ext;
use ccp_sim::json::{normalized_figure_json, Json};
use ccp_sim::sweep::{run_sweep_on, Sweep, SweepConfig};
use ccp_trace::{all_benchmarks, benchmark_by_name, Benchmark};

/// A typed bad-usage error: `class() == "spec"` maps to exit code 2.
fn spec_err(arg: &str, detail: impl std::fmt::Display) -> SimError {
    SimError::spec(format!("{arg}: {detail}"))
}

/// Short git revision for BENCH_core.json provenance; `"unknown"` when
/// the tree isn't a git checkout (e.g. a source tarball).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[derive(Debug)]
struct Args {
    budget: usize,
    seed: u64,
    threads: usize,
    benchmarks: Vec<Benchmark>,
    figures: Vec<String>,
    json_path: Option<std::path::PathBuf>,
    bars: bool,
    min_speedup: Option<f64>,
    out_path: Option<std::path::PathBuf>,
    goldens_dir: Option<std::path::PathBuf>,
    schemes: Vec<ccp_schemes::SchemeKind>,
    dispatch: Option<ccp_compress::LaneDispatch>,
}

fn parse_args() -> SimResult<Args> {
    let mut budget = 400_000usize;
    let mut seed = 1u64;
    let mut threads = 0usize;
    let mut benchmarks = all_benchmarks();
    let mut figures: Vec<String> = Vec::new();
    let mut json_path = None;
    let mut bars = false;
    let mut min_speedup = None;
    let mut out_path = None;
    let mut goldens_dir = None;
    let mut schemes = ccp_schemes::SchemeKind::ALL.to_vec();
    let mut dispatch = None;
    let value = |flag: &str, v: Option<String>| v.ok_or_else(|| spec_err(flag, "needs a value"));
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--budget" => {
                budget = value(&a, it.next())?.parse().map_err(|e| spec_err(&a, e))?;
            }
            "--seed" => {
                seed = value(&a, it.next())?.parse().map_err(|e| spec_err(&a, e))?;
            }
            "--threads" => {
                threads = value(&a, it.next())?.parse().map_err(|e| spec_err(&a, e))?;
            }
            "--benchmarks" => {
                benchmarks = value(&a, it.next())?
                    .split(',')
                    .map(|n| {
                        benchmark_by_name(n.trim())
                            .ok_or_else(|| SimError::unknown("benchmark", n.trim()))
                    })
                    .collect::<SimResult<Vec<_>>>()?;
            }
            "--bars" => bars = true,
            "--json" => {
                json_path = Some(std::path::PathBuf::from(value(&a, it.next())?));
            }
            "--assert-min-speedup" => {
                min_speedup = Some(value(&a, it.next())?.parse().map_err(|e| spec_err(&a, e))?);
            }
            "--out" => {
                out_path = Some(std::path::PathBuf::from(value(&a, it.next())?));
            }
            "--render-goldens" => {
                goldens_dir = Some(std::path::PathBuf::from(value(&a, it.next())?));
            }
            "--dispatch" => {
                let v = value(&a, it.next())?;
                dispatch = Some(
                    ccp_compress::LaneDispatch::from_name(&v)
                        .ok_or_else(|| SimError::unknown("dispatch", &v))?,
                );
            }
            "--schemes" => {
                schemes = value(&a, it.next())?
                    .split(',')
                    .map(|n| {
                        ccp_schemes::SchemeKind::from_name(n)
                            .ok_or_else(|| SimError::unknown("scheme", n.trim()))
                    })
                    .collect::<SimResult<Vec<_>>>()?;
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            f if f.starts_with("fig")
                || f.starts_with("ext")
                || f == "all"
                || f == "workgen"
                || f == "difftest"
                || f == "perf"
                || f == "compare-schemes" =>
            {
                figures.push(f.to_string())
            }
            other => {
                return Err(spec_err(other, "unknown argument (try --help)"));
            }
        }
    }
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = [
            "fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    if figures.iter().any(|f| f == "ext") {
        figures.retain(|f| f != "ext");
        for f in ["exta", "extb", "extc", "extd", "exte", "extf", "extg"] {
            figures.push(f.to_string());
        }
    }
    Ok(Args {
        budget,
        seed,
        threads,
        benchmarks,
        figures,
        json_path,
        bars,
        min_speedup,
        out_path,
        goldens_dir,
        schemes,
        dispatch,
    })
}

/// Fetches the pre-computed sweep a figure arm depends on. `needs_sweep`
/// / `needs_halved` are derived from the same figure list, so a `None`
/// here is a bookkeeping bug in this file — reported as a typed
/// invariant error and a non-zero exit rather than a panic.
fn require<'a>(sweep: &'a Option<Sweep>, figure: &str) -> &'a Sweep {
    sweep.as_ref().unwrap_or_else(|| {
        let e = SimError::invariant("repro", format!("no sweep precomputed for {figure}"));
        eprintln!("error [{}]: {e}", e.class());
        std::process::exit(1);
    })
}

const HELP: &str = "repro — regenerate the paper's tables and figures
usage: repro [--budget N] [--seed S] [--threads T] [--benchmarks a,b,..] [--json FILE] [--bars]
             [fig3..fig15 | exta | extb | extc | ext | workgen | all]
       repro difftest [--budget N] [--seed S] [--benchmarks a,b,..]
                      [--render-goldens DIR]
           replay every benchmark through the optimized and reference CPP
           engines under each {scalar,swar} lane dispatch; exit 1 unless
           all stats are byte-identical; --render-goldens regenerates the
           pinned stats fixtures in DIR
           (crates/sim/tests/expected_stats) and the pipeline fixtures
           beside it (expected_pipeline) after auditing a change
       repro perf [--budget N] [--seed S] [--benchmarks a,b,..]
                  [--out FILE] [--assert-min-speedup X] [--dispatch D]
           time optimized vs reference replay, append a trajectory row to
           BENCH_core.json (default; override with --out), exit 1 if the
           geomean speedup falls below X; --dispatch scalar|swar forces
           the line-classification kernel (default swar)
       repro compare-schemes [--budget N] [--seed S] [--benchmarks a,b,..]
                             [--schemes CPP,BDI,FPC] [--out FILE]
           replay every benchmark under every compression scheme at two
           hierarchy geometries; print the scheme x workload report (miss
           counts, affiliated-hit fraction, tag-overhead bits) and write
           it as JSON to --out (default SCHEMES_report.json)";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error [{}]: {e}", e.class());
            std::process::exit(2);
        }
    };

    if let Some(d) = args.dispatch {
        ccp_compress::set_line_dispatch(d);
        eprintln!("line-classification dispatch forced to {}", d.name());
    }

    let needs_sweep = args
        .figures
        .iter()
        .any(|f| ["fig10", "fig11", "fig12", "fig13", "fig14", "fig15"].contains(&f.as_str()));
    let needs_halved = args.figures.iter().any(|f| f == "fig14");

    let mut cfg = SweepConfig::new(args.budget, args.seed);
    cfg.threads = args.threads;

    // A sweep failure (bad workload, invariant violation) is a typed
    // SimError: report it on stderr and exit non-zero instead of panicking.
    let run_or_die = |cfg: &SweepConfig| match run_sweep_on(&args.benchmarks, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error [{}]: {e}", e.class());
            std::process::exit(1);
        }
    };
    let sweep = if needs_sweep {
        eprintln!(
            "running sweep: {} benchmarks x {} designs, {} instructions each...",
            args.benchmarks.len(),
            cfg.designs.len(),
            args.budget
        );
        Some(run_or_die(&cfg))
    } else {
        None
    };
    let halved = if needs_halved {
        eprintln!("running halved-miss-penalty sweep (Figure 14)...");
        let mut hcfg = cfg.clone();
        hcfg.halved_miss_penalty = true;
        Some(run_or_die(&hcfg))
    } else {
        None
    };

    let mut json_out: Vec<(&'static str, Json)> = Vec::new();
    let ext_benches = if args.benchmarks.len() == all_benchmarks().len() {
        ext::extension_benchmarks()
    } else {
        args.benchmarks.clone()
    };
    for f in &args.figures {
        match f.as_str() {
            "fig3" => {
                let rows = exp::figure3(args.budget, args.seed);
                println!("{}", exp::render_figure3(&rows));
                json_out.push((
                    "fig3",
                    Json::Arr(
                        rows.iter()
                            .map(|r| {
                                Json::obj([
                                    ("benchmark", Json::from(r.benchmark.clone())),
                                    ("small", Json::from(r.small)),
                                    ("pointer", Json::from(r.pointer)),
                                    ("compressible", Json::from(r.compressible)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            "fig9" => println!("{}", exp::figure9()),
            "fig10" => {
                let fig = exp::figure10(require(&sweep, "fig10"));
                println!("{}", fig.render());
                if args.bars {
                    println!("{}", fig.render_bars());
                }
                json_out.push(("fig10", normalized_figure_json(&fig)));
            }
            "fig11" => {
                let fig = exp::figure11(require(&sweep, "fig11"));
                println!("{}", fig.render());
                if args.bars {
                    println!("{}", fig.render_bars());
                }
                json_out.push(("fig11", normalized_figure_json(&fig)));
            }
            "fig12" => {
                let fig = exp::figure12(require(&sweep, "fig12"));
                println!("{}", fig.render());
                if args.bars {
                    println!("{}", fig.render_bars());
                }
                json_out.push(("fig12", normalized_figure_json(&fig)));
            }
            "fig13" => {
                let fig = exp::figure13(require(&sweep, "fig13"));
                println!("{}", fig.render());
                if args.bars {
                    println!("{}", fig.render_bars());
                }
                json_out.push(("fig13", normalized_figure_json(&fig)));
            }
            "fig14" => {
                let fig = exp::figure14(
                    require(&sweep, "fig14"),
                    require(&halved, "fig14 (halved-penalty)"),
                );
                println!("{}", fig.render());
                if args.bars {
                    println!("{}", fig.render_bars());
                }
                json_out.push(("fig14", normalized_figure_json(&fig)));
            }
            "fig15" => {
                let rows = exp::figure15(require(&sweep, "fig15"));
                println!("{}", exp::render_figure15(&rows));
                json_out.push((
                    "fig15",
                    Json::Arr(
                        rows.iter()
                            .map(|r| {
                                Json::obj([
                                    ("benchmark", Json::from(r.benchmark.clone())),
                                    ("hac", Json::from(r.hac)),
                                    ("cpp", Json::from(r.cpp)),
                                    ("increase", Json::from(r.increase)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            "exta" => {
                eprintln!("running stride-prefetch comparison (4 designs per benchmark)...");
                let rows = ext::stride_comparison(&ext_benches, args.budget, args.seed);
                println!("{}", ext::render_stride(&rows));
            }
            "extb" => {
                let rows = ext::fvc_comparison(&ext_benches, args.budget, args.seed);
                println!("{}", ext::render_fvc(&rows));
            }
            "extc" => {
                eprintln!("running CPI-stack attribution (5 designs per benchmark)...");
                let rows = ext::cpi_stacks(&ext_benches, args.budget, args.seed);
                println!("{}", ext::render_cpi(&rows));
            }
            "extd" => {
                eprintln!("running conflict-miss remedy comparison (5 runs per benchmark)...");
                let rows = ext::conflict_comparison(&ext_benches, args.budget, args.seed);
                println!("{}", ext::render_conflict(&rows));
            }
            "exte" => {
                let rows = ext::transition_study(&args.benchmarks, args.budget, args.seed);
                println!("{}", ext::render_transitions(&rows));
            }
            "extf" => {
                eprintln!("running core-model study (4 runs per benchmark)...");
                let rows = ext::core_model_study(&ext_benches, args.budget, args.seed);
                println!("{}", ext::render_core_model(&rows));
            }
            "extg" => {
                eprintln!("running cache-size sensitivity sweep (8 runs)...");
                let bench = &args.benchmarks[0];
                let rows = ext::size_sensitivity(bench, args.budget, args.seed);
                println!("{}", ext::render_sensitivity(&bench.full_name(), &rows));
            }
            "difftest" => {
                if let Some(dir) = &args.goldens_dir {
                    match ccp_sim::difftest::render_goldens(dir) {
                        Ok(written) => {
                            for p in written {
                                eprintln!("wrote {}", p.display());
                            }
                        }
                        Err(e) => {
                            eprintln!("error [{}]: {e}", e.class());
                            std::process::exit(1);
                        }
                    }
                    continue;
                }
                eprintln!(
                    "running differential conformance: {} benchmarks x 2 engines x {{scalar,swar}}, {} instructions each...",
                    args.benchmarks.len(),
                    args.budget
                );
                let outcomes =
                    ccp_sim::difftest::run_difftest(&args.benchmarks, args.budget, args.seed);
                println!("{}", ccp_sim::difftest::render_difftest(&outcomes));
                if outcomes.iter().any(|o| !o.matches()) {
                    eprintln!("error [conformance]: optimized and reference CPP engines diverged");
                    std::process::exit(1);
                }
            }
            "perf" => {
                eprintln!(
                    "running core hot-path benchmark: {} benchmarks x 2 engines, {} instructions each...",
                    args.benchmarks.len(),
                    args.budget
                );
                let report = ccp_sim::perf::run_perf(&args.benchmarks, args.budget, args.seed);
                println!("{}", ccp_sim::perf::render_perf(&report));
                let out = args
                    .out_path
                    .clone()
                    .unwrap_or_else(|| std::path::PathBuf::from("BENCH_core.json"));
                let entry = ccp_sim::perf::perf_entry_json(
                    &report,
                    &git_rev(),
                    ccp_compress::line_dispatch().name(),
                );
                let existing = std::fs::read_to_string(&out).ok();
                let doc = ccp_sim::perf::append_trajectory(existing.as_deref(), entry).to_string();
                if let Err(e) = ccp_sim::json::write_atomic(&out, &doc) {
                    eprintln!("error [{}]: {e}", e.class());
                    std::process::exit(1);
                }
                eprintln!("appended trajectory entry to {}", out.display());
                if let Some(min) = args.min_speedup {
                    let got = report.geomean_speedup();
                    if got < min {
                        eprintln!(
                            "error [perf]: geomean speedup {got:.2}x below required {min:.2}x"
                        );
                        std::process::exit(1);
                    }
                    eprintln!("geomean speedup {got:.2}x >= required {min:.2}x");
                }
            }
            "compare-schemes" => {
                eprintln!(
                    "running cross-scheme study: {} benchmarks x {} schemes x 2 geometries, {} instructions each...",
                    args.benchmarks.len(),
                    args.schemes.len(),
                    args.budget
                );
                let mut cfg = ccp_sim::schemes_study::StudyConfig::new(
                    args.budget,
                    args.seed,
                    args.benchmarks.iter().map(|b| b.full_name()).collect(),
                );
                cfg.schemes = args.schemes.clone();
                let study = match ccp_sim::schemes_study::run_study(&cfg) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error [{}]: {e}", e.class());
                        std::process::exit(1);
                    }
                };
                println!("{}", study.render_report());
                let out = args
                    .out_path
                    .clone()
                    .unwrap_or_else(|| std::path::PathBuf::from("SCHEMES_report.json"));
                let doc = study.to_json().to_string();
                if let Err(e) = ccp_sim::json::write_atomic(&out, &doc) {
                    eprintln!("error [{}]: {e}", e.class());
                    std::process::exit(1);
                }
                eprintln!("wrote {}", out.display());
                if !study.cache_keys_scheme_distinct() {
                    eprintln!(
                        "error [conformance]: schemes share a cache key — content addressing broken"
                    );
                    std::process::exit(1);
                }
            }
            "workgen" => {
                eprintln!("running compressibility sweep (11 synthetic points, BC+CPP each)...");
                let base = ccp_workgen::WorkgenSpec::parse("addr=uniform,ptr=0.0")
                    .expect("base workgen spec");
                let rows = exp::compressibility_sweep(
                    &base,
                    11,
                    args.budget as u64,
                    args.seed,
                    args.threads,
                );
                println!("{}", exp::render_compressibility_sweep(&base, &rows));
                json_out.push((
                    "workgen",
                    Json::Arr(
                        rows.iter()
                            .map(|r| {
                                Json::obj([
                                    ("small_fraction", Json::from(r.small_fraction)),
                                    ("measured_compressible", Json::from(r.measured_compressible)),
                                    ("bc_traffic", Json::from(r.bc_traffic as f64)),
                                    ("cpp_traffic", Json::from(r.cpp_traffic as f64)),
                                    ("normalized_traffic", Json::from(r.normalized_traffic)),
                                    ("normalized_l1_misses", Json::from(r.normalized_l1_misses)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            other => eprintln!("skipping unknown figure {other:?}"),
        }
        println!();
    }

    if let Some(path) = &args.json_path {
        let doc = Json::obj(json_out).to_string();
        // Atomic temp-then-rename write: a crash here can't leave a torn
        // half-written results file for downstream tooling to choke on.
        if let Err(e) = ccp_sim::json::write_atomic(path, &doc) {
            eprintln!("error [{}]: {e}", e.class());
            std::process::exit(1);
        }
        eprintln!("wrote JSON results to {}", path.display());
    }
}
