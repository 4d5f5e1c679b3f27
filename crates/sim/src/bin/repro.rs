//! `repro` — the simulator's one binary. Without a subcommand it
//! regenerates the paper's tables and figures; its subcommands run
//! resumable sweeps, per-design dumps of one benchmark, the
//! fault-injection harness, and synthetic workloads.
//!
//! ```text
//! repro [OPTIONS] [FIGURES...]     fig3 fig9..fig15 all · exta..extg ext · workgen
//!                                  · difftest · perf · compare-schemes
//! repro sweep [OPTIONS]            resumable, crash-isolated sweep grid
//! repro inspect <benchmark>        full per-design statistics of one benchmark
//! repro chaos [OPTIONS]            fault injection: every class must be detected
//! repro trace workgen [OPTIONS]    stream and profile one synthetic workload
//! ```
//!
//! `repro --help` prints every subcommand's options ([`HELP`]). One
//! parser ([`Args::parse`]) reads every command line, so a flag means the
//! same thing and fails the same way everywhere. Exit codes: 0 ok · 1 run
//! or I/O failure, failed cell or failed check · 2 usage or spec error ·
//! 3 sweep incomplete (cells skipped); a stdout closed early (`repro … |
//! head`) ends it by SIGPIPE, shell status 141.

use ccp_cache::DesignKind;
use ccp_compress::profile::ValueProfile;
use ccp_errors::{SimError, SimResult};
use ccp_schemes::SchemeKind;
use ccp_sim::checkpoint::stats_to_json;
use ccp_sim::experiments::{self as exp, NormalizedFigure};
use ccp_sim::extensions as ext;
use ccp_sim::json::{normalized_figure_json, write_atomic, Json};
use ccp_sim::sweep::{
    run_cell_source_scheme, run_sweep, run_sweep_resilient, CellStatus, ResilienceConfig, Sweep,
    SweepConfig, Workload,
};
use ccp_sim::{build_design, chaos, fastsim};
use ccp_trace::{all_benchmarks, benchmark_by_name, profile_source_values, Benchmark, TraceSource};
use ccp_workgen::{SynthSource, WorkgenSpec};
use std::path::{Path, PathBuf};
use std::process::exit;

/// Exit code of a run or I/O failure, a failed sweep cell or a failed
/// check (diverged engines, an escaped fault, a speedup below its floor).
const EXIT_FAILED: i32 = 1;
/// Exit code of a usage or spec error: errors of class `spec` or
/// `unknown-name`.
const EXIT_USAGE: i32 = 2;
/// Exit code of a sweep that stopped with cells skipped (`--max-cells`).
const EXIT_INCOMPLETE: i32 = 3;

const HELP: &str = "repro — the CPP simulator: the paper's figures, sweeps, traces, fault injection
usage: repro [--budget N] [--seed S] [--threads T] [--benchmarks a,b,..] [--json FILE] [--bars]
             [fig3..fig15 | exta..extg | ext | workgen | all]...
           print the paper's figures and the extension tables (default: all;
           budget 400000)
       repro difftest [--budget N] [--seed S] [--benchmarks a,b,..]
                      [--render-goldens DIR]
           replay every benchmark through the optimized and reference CPP
           engines; exit 1 unless all stats are byte-identical;
           --render-goldens regenerates the pinned stats fixtures in DIR
           (crates/sim/tests/expected_stats) and the pipeline fixtures
           beside it (expected_pipeline) after auditing a change
       repro perf [--budget N] [--seed S] [--benchmarks a,b,..]
                  [--out FILE] [--assert-min-speedup X]
           time optimized vs reference replay, append a trajectory row to
           BENCH_core.json (default; override with --out), exit 1 if the
           geomean speedup falls below X
       repro compare-schemes [--budget N] [--seed S] [--benchmarks a,b,..]
                             [--schemes CPP,BDI,FPC] [--out FILE]
           replay every benchmark under every compression scheme at two
           hierarchy geometries; print the scheme x workload report (miss
           counts, affiliated-hit fraction, tag-overhead bits) and write
           it as JSON to --out (default SCHEMES_report.json)
       repro sweep [--budget N] [--seed S] [--threads T]
                   [--workloads a,b,..] [--designs BC,CPP,..] [--halved]
                   [--scheme CPP|BDI|FPC] [--watchdog N] [--max-cells N]
                   [--store DIR] [--json FILE]
           run a workload x design grid with per-cell crash isolation
           (budget 60000); --store DIR restores the cells a result store
           holds (shared with ccp-served --store) and writes the rest
       repro inspect <benchmark> [--budget N] [--seed S] [--json FILE]
           dump every design's run statistics for one benchmark (budget 300000)
       repro chaos [--workload NAME|SPEC]... [--all-benchmarks] [--budget N] [--seed S]
           inject every metadata fault class and require each detected
           (budget 20000, workload health)
       repro trace workgen [--spec STR] [--addr seq|stride|uniform|zipf|chase]
                   [--small-value F] [--pointer F] [--entropy F] [--mem F]
                   [--store-ratio F] [--branch F] [--falu F] [--footprint W]
                   [--stride W] [--zipf-skew K] [--nodes N] [--seed S] [--budget N]
           stream a synthetic workload and print its mix, value profile and
           functional BC/CPP traffic (budget 1000000)
exit codes: 0 ok · 1 run/IO failure or failed cell · 2 usage/spec error · 3 sweep incomplete;
            a stdout closed early ends repro by SIGPIPE (shell status 141)";

/// Flags that take no value; every other flag takes one.
const SWITCHES: [&str; 3] = ["--bars", "--halved", "--all-benchmarks"];

/// A subcommand: the words that select it, how many names (a
/// benchmark) follow them (`None`: any number), its default budget, the flags
/// it takes (space-separated), and the function that runs it.
struct Command {
    name: &'static str,
    names: Option<usize>,
    budget: usize,
    flags: &'static str,
    run: fn(&Args) -> SimResult<()>,
}

/// The figure mode: every argument that is not a flag names a figure.
static FIGURE_MODE: Command = Command {
    name: "",
    names: None,
    budget: 400_000,
    flags: "--budget --seed --threads --benchmarks --json --bars --assert-min-speedup --out \
            --render-goldens --schemes",
    run: figures,
};

static COMMANDS: [Command; 4] = [
    Command {
        name: "sweep",
        names: Some(0),
        budget: 60_000,
        flags: "--budget --seed --threads --workloads --designs --halved --scheme --watchdog \
                --max-cells --store --json",
        run: sweep,
    },
    Command {
        name: "inspect",
        names: Some(1),
        budget: 300_000,
        flags: "--budget --seed --json",
        run: inspect,
    },
    Command {
        name: "chaos",
        names: Some(0),
        budget: 20_000,
        flags: "--budget --seed --workload --all-benchmarks",
        run: chaos,
    },
    Command {
        name: "trace workgen",
        names: Some(0),
        budget: 1_000_000,
        flags: "--budget --seed --spec --addr --small-value --pointer --entropy --mem \
                --store-ratio --branch --falu --footprint --stride --zipf-skew --nodes",
        run: trace_workgen,
    },
];

/// A typed bad-usage error: `class() == "spec"` maps to exit code 2.
fn spec_err(arg: &str, detail: impl std::fmt::Display) -> SimError {
    SimError::spec(format!("{arg}: {detail}"))
}

/// Parses `value` of `flag` as a number.
fn num<T: std::str::FromStr>(flag: &str, value: &str) -> SimResult<T>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| spec_err(flag, e))
}

/// One command line, parsed by the parser every subcommand shares.
struct Args {
    command: &'static Command,
    /// Arguments that are not flags, after the subcommand's own words.
    names: Vec<String>,
    /// Flags in command-line order; a switch's value is empty.
    flags: Vec<(&'static str, String)>,
    budget: usize,
    seed: u64,
    /// Worker threads (0 = all cores).
    threads: usize,
    json: Option<PathBuf>,
    /// `--benchmarks` / `--workloads` lists, `--workload` repeats and
    /// `--all-benchmarks`, applied in order; empty = the subcommand's
    /// default set.
    workloads: Vec<String>,
}

impl Args {
    /// Picks the subcommand from the leading words, then reads the flags
    /// it takes. An unknown subcommand, an unknown flag, a flag without
    /// its value, a bad number or the wrong count of names is a spec
    /// error; `--help` prints [`HELP`] and exits 0.
    fn parse(argv: impl IntoIterator<Item = String>) -> SimResult<Args> {
        let mut argv = argv.into_iter().peekable();
        let lead = argv.peek().cloned().unwrap_or_default();
        let command = if lead == "trace" {
            argv.next();
            let sub = argv.next().unwrap_or_default();
            COMMANDS
                .iter()
                .find(|c| c.name.strip_prefix("trace ") == Some(sub.as_str()))
                .ok_or_else(|| {
                    spec_err(
                        "repro trace",
                        format!("unknown subcommand {sub:?} (valid: workgen)"),
                    )
                })?
        } else if let Some(c) = COMMANDS.iter().find(|c| c.name == lead) {
            argv.next();
            c
        } else {
            &FIGURE_MODE
        };

        let mut names = Vec::new();
        let mut flags = Vec::new();
        while let Some(a) = argv.next() {
            if a == "--help" || a == "-h" {
                println!("{HELP}");
                exit(0);
            }
            if !a.starts_with('-') {
                names.push(a);
                continue;
            }
            let Some(flag) = command.flags.split_whitespace().find(|f| *f == a) else {
                return Err(spec_err(
                    &a,
                    format!("not an option of {} (try --help)", command.title()),
                ));
            };
            let value = if SWITCHES.contains(&flag) {
                String::new()
            } else {
                argv.next().ok_or_else(|| spec_err(flag, "needs a value"))?
            };
            flags.push((flag, value));
        }
        if let Some(n) = command.names.filter(|&n| n != names.len()) {
            return Err(spec_err(
                &command.title(),
                format!("takes {n} name(s), got {names:?} (try --help)"),
            ));
        }

        let mut args = Args {
            command,
            names,
            flags,
            budget: command.budget,
            seed: 1,
            threads: 0,
            json: None,
            workloads: Vec::new(),
        };
        for (flag, v) in &args.flags {
            match *flag {
                "--budget" => args.budget = num(flag, v)?,
                "--seed" => args.seed = num(flag, v)?,
                "--threads" => args.threads = num(flag, v)?,
                "--json" => args.json = Some(v.into()),
                "--benchmarks" | "--workloads" => args.workloads = Workload::parse_list(v),
                "--workload" => args.workloads.push(v.clone()),
                "--all-benchmarks" => {
                    args.workloads = all_benchmarks().iter().map(|b| b.full_name()).collect();
                }
                _ => {}
            }
        }
        Ok(args)
    }

    /// The value of the last `flag` on the command line.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }
}

impl Command {
    fn title(&self) -> String {
        format!("repro {}", self.name).trim_end().to_string()
    }
}

/// Reports `e` and exits with its code: 2 for a usage or spec error, 1
/// for anything else.
fn die(e: &SimError) -> ! {
    eprintln!("error [{}]: {e}", e.class());
    exit(match e.class() {
        "spec" | "unknown-name" => EXIT_USAGE,
        _ => EXIT_FAILED,
    })
}

fn main() {
    // std ignores SIGPIPE, so a print to a closed pipe would panic (exit
    // 101). The default disposition ends `repro` the way it ends `cat`:
    // silently, by the signal, never with a status that reads as success.
    // `std` already links libc; declaring `signal` avoids a dependency.
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: `signal` is the C library's, declared with its ABI
        // (`sighandler_t` is pointer-sized); SIG_DFL installs no handler
        // code, and no other thread exists yet to race the change.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
    if let Err(e) = Args::parse(std::env::args().skip(1)).and_then(|a| (a.command.run)(&a)) {
        die(&e);
    }
}

// ---------------------------------------------------------------------------
// Figure mode
// ---------------------------------------------------------------------------

/// What the figure mode computes once for every figure it prints.
struct Ctx<'a> {
    args: &'a Args,
    benchmarks: Vec<Benchmark>,
    /// The extension tables' benchmarks: their representative subset,
    /// unless `--benchmarks` narrowed the run.
    ext_benches: Vec<Benchmark>,
    schemes: Vec<SchemeKind>,
    min_speedup: Option<f64>,
    sweep: Option<Sweep>,
    halved: Option<Sweep>,
}

impl Ctx<'_> {
    /// The precomputed sweep (`halved`: the halved-miss-penalty one) a
    /// figure reads. [`figures`] derives what to precompute from the same
    /// figure list, so a `None` here is a bookkeeping bug in this file,
    /// reported as a typed invariant error.
    fn sweep(&self, halved: bool) -> SimResult<&Sweep> {
        let sweep = if halved { &self.halved } else { &self.sweep };
        sweep
            .as_ref()
            .ok_or_else(|| SimError::invariant("repro", "no sweep precomputed for this figure"))
    }
}

/// Prints one figure, table or study, then the blank line that closes
/// it, and returns the JSON it contributes to `--json`, if any.
type Figure = fn(&Ctx) -> SimResult<Option<Json>>;

/// Every name the figure mode takes, in paper order. `all` stands for the
/// `fig*` entries and `ext` for the `ext*` ones.
static FIGURES: [(&str, Figure); 19] = [
    ("fig3", fig3),
    ("fig9", |_| {
        println!("{}\n", exp::figure9());
        Ok(None)
    }),
    ("fig10", |c| normalized(c, exp::figure10(c.sweep(false)?))),
    ("fig11", |c| normalized(c, exp::figure11(c.sweep(false)?))),
    ("fig12", |c| normalized(c, exp::figure12(c.sweep(false)?))),
    ("fig13", |c| normalized(c, exp::figure13(c.sweep(false)?))),
    ("fig14", |c| {
        normalized(c, exp::figure14(c.sweep(false)?, c.sweep(true)?))
    }),
    ("fig15", fig15),
    ("exta", |c| {
        eprintln!("running stride-prefetch comparison (4 designs per benchmark)...");
        let rows = ext::stride_comparison(&c.ext_benches, c.args.budget, c.args.seed);
        println!("{}\n", ext::render_stride(&rows));
        Ok(None)
    }),
    ("extb", |c| {
        let rows = ext::fvc_comparison(&c.ext_benches, c.args.budget, c.args.seed);
        println!("{}\n", ext::render_fvc(&rows));
        Ok(None)
    }),
    ("extc", |c| {
        eprintln!("running CPI-stack attribution (5 designs per benchmark)...");
        let rows = ext::cpi_stacks(&c.ext_benches, c.args.budget, c.args.seed);
        println!("{}\n", ext::render_cpi(&rows));
        Ok(None)
    }),
    ("extd", |c| {
        eprintln!("running conflict-miss remedy comparison (5 runs per benchmark)...");
        let rows = ext::conflict_comparison(&c.ext_benches, c.args.budget, c.args.seed);
        println!("{}\n", ext::render_conflict(&rows));
        Ok(None)
    }),
    ("exte", |c| {
        let rows = ext::transition_study(&c.benchmarks, c.args.budget, c.args.seed);
        println!("{}\n", ext::render_transitions(&rows));
        Ok(None)
    }),
    ("extf", |c| {
        eprintln!("running core-model study (4 runs per benchmark)...");
        let rows = ext::core_model_study(&c.ext_benches, c.args.budget, c.args.seed);
        println!("{}\n", ext::render_core_model(&rows));
        Ok(None)
    }),
    ("extg", |c| {
        eprintln!("running cache-size sensitivity sweep (8 runs)...");
        let bench = &c.benchmarks[0];
        let rows = ext::size_sensitivity(bench, c.args.budget, c.args.seed);
        println!("{}\n", ext::render_sensitivity(&bench.full_name(), &rows));
        Ok(None)
    }),
    ("workgen", compressibility_sweep),
    ("difftest", difftest),
    ("perf", perf),
    ("compare-schemes", compare_schemes),
];

/// Resolves figure names to [`FIGURES`] entries, expanding `all` and
/// `ext` in place so a figure named beside them still runs in the order
/// given. No name means `all`; an unknown name is a spec error.
fn figure_list(names: &[String]) -> SimResult<Vec<&'static (&'static str, Figure)>> {
    let all = ["all".to_string()];
    let names = if names.is_empty() { &all[..] } else { names };
    let mut list = Vec::new();
    for name in names {
        let before = list.len();
        list.extend(FIGURES.iter().filter(|(f, _)| match name.as_str() {
            "all" => f.starts_with("fig"),
            "ext" => f.starts_with("ext"),
            _ => f == name,
        }));
        if list.len() == before {
            let valid: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
            return Err(spec_err(
                name,
                format!(
                    "unknown figure (valid: all, ext, {}); the subcommands sweep, inspect, \
                     chaos and trace must come first",
                    valid.join(", ")
                ),
            ));
        }
    }
    Ok(list)
}

/// The figure mode: runs the sweeps the named figures read, then prints
/// each figure in order.
fn figures(args: &Args) -> SimResult<()> {
    let list = figure_list(&args.names)?;
    let benchmarks = if args.workloads.is_empty() {
        all_benchmarks()
    } else {
        args.workloads
            .iter()
            .map(|n| benchmark_by_name(n).ok_or_else(|| SimError::unknown("benchmark", n)))
            .collect::<SimResult<Vec<_>>>()?
    };
    let schemes = match args.value("--schemes") {
        Some(list) => list
            .split(',')
            .map(|n| SchemeKind::from_name(n).ok_or_else(|| SimError::unknown("scheme", n.trim())))
            .collect::<SimResult<Vec<_>>>()?,
        None => SchemeKind::ALL.to_vec(),
    };
    let min_speedup = args
        .value("--assert-min-speedup")
        .map(|v| num("--assert-min-speedup", v))
        .transpose()?;
    let needs = |names: &[&str]| list.iter().any(|(f, _)| names.contains(f));
    let needs_sweep = needs(&["fig10", "fig11", "fig12", "fig13", "fig14", "fig15"]);
    let needs_halved = needs(&["fig14"]);

    let mut cfg = SweepConfig::new(args.budget, args.seed);
    cfg.workloads = benchmarks.iter().map(|b| b.full_name()).collect();
    cfg.threads = args.threads;
    let sweep = if needs_sweep {
        eprintln!(
            "running sweep: {} benchmarks x {} designs, {} instructions each...",
            benchmarks.len(),
            cfg.designs.len(),
            args.budget
        );
        Some(run_sweep(&cfg)?)
    } else {
        None
    };
    let halved = if needs_halved {
        eprintln!("running halved-miss-penalty sweep (Figure 14)...");
        let mut hcfg = cfg.clone();
        hcfg.halved_miss_penalty = true;
        Some(run_sweep(&hcfg)?)
    } else {
        None
    };

    let ext_benches = if benchmarks.len() == all_benchmarks().len() {
        ext::extension_benchmarks()
    } else {
        benchmarks.clone()
    };
    let ctx = Ctx {
        args,
        benchmarks,
        ext_benches,
        schemes,
        min_speedup,
        sweep,
        halved,
    };
    let mut json_out: Vec<(&'static str, Json)> = Vec::new();
    for (name, figure) in list {
        if let Some(json) = figure(&ctx)? {
            json_out.push((name, json));
        }
    }

    if let Some(path) = &args.json {
        // Atomic temp-then-rename write: a crash here can't leave a torn
        // half-written results file for downstream tooling to choke on.
        write_atomic(path, &Json::obj(json_out).to_string())?;
        eprintln!("wrote JSON results to {}", path.display());
    }
    Ok(())
}

/// Figures 10–14: a table normalized to BC, with `--bars` its bar chart.
fn normalized(c: &Ctx, fig: NormalizedFigure) -> SimResult<Option<Json>> {
    println!("{}", fig.render());
    if c.args.has("--bars") {
        println!("{}", fig.render_bars());
    }
    println!();
    Ok(Some(normalized_figure_json(&fig)))
}

fn fig3(c: &Ctx) -> SimResult<Option<Json>> {
    let rows = exp::figure3(c.args.budget, c.args.seed);
    println!("{}\n", exp::render_figure3(&rows));
    Ok(Some(Json::Arr(
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
    )))
}

fn fig15(c: &Ctx) -> SimResult<Option<Json>> {
    let rows = exp::figure15(c.sweep(false)?);
    println!("{}\n", exp::render_figure15(&rows));
    Ok(Some(Json::Arr(
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
    )))
}

/// `workgen`: CPP vs BC as the small-value fraction of one synthetic
/// address stream sweeps from 0 to 1.
fn compressibility_sweep(c: &Ctx) -> SimResult<Option<Json>> {
    eprintln!("running compressibility sweep (11 synthetic points, BC+CPP each)...");
    let base = WorkgenSpec::parse("addr=uniform,ptr=0.0")?;
    let rows =
        exp::compressibility_sweep(&base, 11, c.args.budget as u64, c.args.seed, c.args.threads);
    println!("{}\n", exp::render_compressibility_sweep(&base, &rows));
    Ok(Some(Json::Arr(
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
    )))
}

/// `difftest`: optimized vs reference CPP engine; with
/// `--render-goldens DIR`, rewrites the pinned fixtures.
fn difftest(c: &Ctx) -> SimResult<Option<Json>> {
    if let Some(dir) = c.args.value("--render-goldens") {
        for p in ccp_sim::difftest::render_goldens(Path::new(dir))? {
            eprintln!("wrote {}", p.display());
        }
        return Ok(None);
    }
    eprintln!(
        "running differential conformance: {} benchmarks x 2 engines, {} instructions each...",
        c.benchmarks.len(),
        c.args.budget
    );
    let outcomes = ccp_sim::difftest::run_difftest(&c.benchmarks, c.args.budget, c.args.seed);
    println!("{}", ccp_sim::difftest::render_difftest(&outcomes));
    if outcomes.iter().any(|o| !o.matches()) {
        eprintln!("error [conformance]: optimized and reference CPP engines diverged");
        exit(EXIT_FAILED);
    }
    println!();
    Ok(None)
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

/// `perf`: times optimized vs reference replay and a pipeline run per
/// benchmark, each the fastest of five alternated repetitions, and
/// appends a row to the BENCH_core.json trajectory.
fn perf(c: &Ctx) -> SimResult<Option<Json>> {
    eprintln!(
        "running core hot-path benchmark: {} benchmarks x (2 engines + pipeline), {} instructions each...",
        c.benchmarks.len(),
        c.args.budget
    );
    let report = ccp_sim::perf::run_perf(&c.benchmarks, c.args.budget, c.args.seed);
    println!("{}", ccp_sim::perf::render_perf(&report));
    let out = PathBuf::from(c.args.value("--out").unwrap_or("BENCH_core.json"));
    let entry = ccp_sim::perf::perf_entry_json(&report, &git_rev());
    let existing = std::fs::read_to_string(&out).ok();
    write_atomic(
        &out,
        &ccp_sim::perf::append_trajectory(existing.as_deref(), entry).to_string(),
    )?;
    eprintln!("appended trajectory entry to {}", out.display());
    if let Some(min) = c.min_speedup {
        let got = report.geomean_speedup();
        if got < min {
            eprintln!("error [perf]: geomean speedup {got:.2}x below required {min:.2}x");
            exit(EXIT_FAILED);
        }
        eprintln!("geomean speedup {got:.2}x >= required {min:.2}x");
    }
    println!();
    Ok(None)
}

/// `compare-schemes`: the scheme × workload study at two geometries.
fn compare_schemes(c: &Ctx) -> SimResult<Option<Json>> {
    eprintln!(
        "running cross-scheme study: {} benchmarks x {} schemes x 2 geometries, {} instructions each...",
        c.benchmarks.len(),
        c.schemes.len(),
        c.args.budget
    );
    let mut cfg = ccp_sim::schemes_study::StudyConfig::new(
        c.args.budget,
        c.args.seed,
        c.benchmarks.iter().map(|b| b.full_name()).collect(),
    );
    cfg.schemes = c.schemes.clone();
    let study = ccp_sim::schemes_study::run_study(&cfg)?;
    println!("{}", study.render_report());
    let out = PathBuf::from(c.args.value("--out").unwrap_or("SCHEMES_report.json"));
    write_atomic(&out, &study.to_json().to_string())?;
    eprintln!("wrote {}", out.display());
    if !study.cache_keys_scheme_distinct() {
        eprintln!("error [conformance]: schemes share a cache key — content addressing broken");
        exit(EXIT_FAILED);
    }
    println!();
    Ok(None)
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

/// `sweep`: the hardened, resumable sweep driver. Interrupt a run with
/// `--store DIR` (Ctrl-C, kill, power loss) and re-run it on the same
/// store: finished cells are restored and the final report is
/// byte-identical to an uninterrupted run.
fn sweep(args: &Args) -> SimResult<()> {
    let mut config = SweepConfig::new(args.budget, args.seed);
    config.threads = args.threads;
    config.workloads = args.workloads.clone();
    let mut resilience = ResilienceConfig::default();
    for (flag, v) in &args.flags {
        match *flag {
            "--designs" => {
                config.designs = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--halved" => config.halved_miss_penalty = true,
            "--scheme" => {
                config.scheme = SchemeKind::from_name(v)
                    .ok_or_else(|| SimError::unknown("scheme", v))?
                    .name()
                    .to_string();
            }
            "--watchdog" => resilience.watchdog_limit = num(flag, v)?,
            "--max-cells" => resilience.max_cells = Some(num(flag, v)?),
            "--store" => resilience.store = Some(v.into()),
            _ => {}
        }
    }

    let sweep = run_sweep_resilient(&config, &resilience)?;
    print!("{}", sweep.render_report());
    for outcome in sweep.outcomes() {
        if let CellStatus::Failed(e) = &outcome.status {
            eprintln!(
                "cell {}/{} failed [{}]: {e}",
                outcome.workload,
                outcome.design,
                e.class()
            );
        }
    }
    if let Some(path) = &args.json {
        write_atomic(path, &sweep.to_json().to_string())?;
        eprintln!("wrote JSON outcome grid to {}", path.display());
    }
    if sweep.failed_count() > 0 {
        exit(EXIT_FAILED);
    }
    if sweep.skipped_count() > 0 {
        exit(EXIT_INCOMPLETE);
    }
    Ok(())
}

/// `inspect`: every design's run statistics for one benchmark — misses,
/// hit sources, prefetch/promotion/parking activity, bus traffic, IPC and
/// the ready-queue statistic. `--json FILE` writes the same data as one
/// document whose cells have the shape of a `repro sweep --json` cell.
fn inspect(args: &Args) -> SimResult<()> {
    let name = &args.names[0];
    let b = benchmark_by_name(name).ok_or_else(|| SimError::unknown("benchmark", name))?;
    let trace = b.trace(args.budget, args.seed);
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
    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("benchmark", Json::Str(b.full_name())),
            ("budget", Json::Num(args.budget as f64)),
            ("seed", Json::Num(args.seed as f64)),
            ("designs", Json::obj(cells)),
        ]);
        write_atomic(path, &doc.to_string())?;
    }
    Ok(())
}

/// `chaos`: replays each workload through a CPP hierarchy, requires the
/// exhaustive invariant checker to be silent on the clean state (no false
/// positives), then injects every metadata-corruption class and requires
/// each to be detected. Exit 0 only when every class on every workload is
/// caught.
fn chaos(args: &Args) -> SimResult<()> {
    let default = ["health".to_string()];
    let names = if args.workloads.is_empty() {
        &default[..]
    } else {
        &args.workloads[..]
    };
    let mut all_passed = true;
    for name in names {
        let workload = Workload::by_name(name)?;
        match chaos::run_chaos(&workload, args.budget, args.seed) {
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
    if !all_passed {
        eprintln!("chaos: FAILED (escaped fault or false positive above)");
        exit(EXIT_FAILED);
    }
    println!("chaos: every fault class detected, no false positives");
    Ok(())
}

/// `trace workgen`: streams a synthetic workload (never materializing
/// it) and prints its instruction mix, its measured compressibility
/// profile, and functional BC/CPP traffic. The model flags translate to
/// the spec's `key=value` text, so `--spec` and single flags compose
/// (later flags win), and the same flags always print the same bytes.
fn trace_workgen(args: &Args) -> SimResult<()> {
    let mut pairs: Vec<String> = Vec::new();
    for (flag, v) in &args.flags {
        // A model flag sets the spec key of its own name, but for these four.
        let key = match *flag {
            "--budget" | "--seed" => continue,
            "--spec" => {
                pairs.push(v.strip_prefix("workgen:").unwrap_or(v).to_string());
                continue;
            }
            "--small-value" => "small",
            "--pointer" => "ptr",
            "--store-ratio" => "store",
            "--zipf-skew" => "skew",
            model => model.trim_start_matches('-'),
        };
        pairs.push(format!("{key}={v}"));
    }
    let spec = WorkgenSpec::parse(&pairs.join(","))?;
    let (seed, budget) = (args.seed, args.budget as u64);
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figures(argv: &[&str]) -> Vec<&'static str> {
        let args = Args::parse(argv.iter().map(|a| a.to_string())).expect("valid arguments");
        figure_list(&args.names)
            .expect("known figures")
            .iter()
            .map(|(name, _)| *name)
            .collect()
    }

    #[test]
    fn all_and_ext_expand_in_place() {
        let all = [
            "fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
        ];
        let ext = ["exta", "extb", "extc", "extd", "exte", "extf", "extg"];
        assert_eq!(figures(&[]), all);
        assert_eq!(figures(&["--budget", "20000", "all"]), all);
        assert_eq!(figures(&["ext"]), ext);
        assert_eq!(figures(&["all", "ext"]), [&all[..], &ext[..]].concat());
        assert_eq!(
            figures(&["all", "workgen"]),
            [&all[..], &["workgen"]].concat()
        );
        assert_eq!(
            figures(&["fig3", "all", "fig9"]),
            [&["fig3"], &all[..], &["fig9"]].concat()
        );
        assert_eq!(figures(&["ext", "fig3"]), [&ext[..], &["fig3"]].concat());
    }
}
