//! The repository's benchmark: end-to-end metrics for three workloads and,
//! in a separate traced run, per-layer metrics for every layer.
//!
//! ```text
//! perfbench --workload <paper-sweep|replay|serve-openloop> --seed N --seconds S --trace 0|1
//! perfbench --record <paper-sweep|replay> [--seeds A..B]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` beside
//! this package for what each workload and metric measures.

mod expect;
mod replay;
mod report;
mod serve;
mod spans;
mod sweep;

use ccp_errors::{SimError, SimResult};
use report::Record;
use spans::Tracer;
use std::process::ExitCode;
use std::time::Instant;

/// Settings shared by the workloads.
pub struct Ctx {
    pub seed: u64,
    /// Host seconds the measurement loop aims for.
    pub seconds: f64,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
}

impl Ctx {
    /// Sets up `setups` times, dropping each result before the next so
    /// that peak memory holds one copy. Returns the last result and each
    /// set-up's host seconds.
    pub fn set_up<T>(&self, mut f: impl FnMut() -> SimResult<T>) -> SimResult<(T, Vec<f64>)> {
        let mut last = None;
        let mut secs = Vec::with_capacity(self.setups);
        for _ in 0..self.setups.max(1) {
            drop(last.take());
            let t = Instant::now();
            last = Some(f()?);
            secs.push(t.elapsed().as_secs_f64());
        }
        Ok((last.expect("at least one set-up ran"), secs))
    }

    /// Runs whole passes until one more would overrun the measuring time,
    /// and at least one. Returns the number of passes.
    pub fn passes(&self, mut pass: impl FnMut()) -> u32 {
        let started = Instant::now();
        let mut n = 0u32;
        loop {
            pass();
            n += 1;
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed + elapsed / f64::from(n) > self.seconds {
                return n;
            }
        }
    }
}

const WORKLOADS: [&str; 3] = ["paper-sweep", "replay", "serve-openloop"];

/// Maps `f` over `items` on two threads (the recording path only).
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let half = items.len().div_ceil(2);
    std::thread::scope(|s| {
        let (a, b) = items.split_at(half);
        let f = &f;
        let h = s.spawn(move || b.iter().map(f).collect::<Vec<R>>());
        let mut out: Vec<R> = a.iter().map(f).collect();
        out.extend(h.join().expect("recording thread panicked"));
        out
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
    seeds: (u64, u64),
}

fn bad(flag: &str, detail: impl std::fmt::Display) -> SimError {
    SimError::spec(format!("{flag}: {detail}"))
}

fn parse_args() -> SimResult<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: None,
        seeds: (0, 63),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| SimError::spec(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| bad("--seed", e))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| bad("--seconds", e))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(SimError::spec("--seconds must be in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("--trace", format!("takes 0 or 1, not {v}"))),
                }
            }
            "--record" => a.record = Some(value()?),
            "--seeds" => {
                let v = value()?;
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or_else(|| SimError::spec("--seeds takes A..B"))?;
                a.seeds = (
                    lo.parse().map_err(|e| bad("--seeds", e))?,
                    hi.parse().map_err(|e| bad("--seeds", e))?,
                );
            }
            other => return Err(SimError::unknown("argument", other)),
        }
    }
    let named = a.record.as_deref().unwrap_or(&a.workload);
    if !WORKLOADS.contains(&named) {
        return Err(SimError::unknown("workload", named));
    }
    Ok(a)
}

/// Short git revision of the working directory, read from `.git` without
/// running git; `unknown` outside a repository.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD");
    let rev = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(r) => read(&format!(".git/{r}")),
        None => head,
    };
    rev.map_or("unknown".into(), |r| r.chars().take(12).collect())
}

fn run(args: &Args) -> SimResult<Record> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        setups: 11,
    };
    let mut rec = Record::default();
    rec.prov("workload", &args.workload);
    rec.prov("seed", args.seed);
    rec.prov("seconds", args.seconds);
    rec.prov("trace", u8::from(args.trace));
    rec.prov(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    rec.prov("git_rev", git_rev());
    if args.trace {
        // Per-layer metrics span all three workloads, so the traced run
        // covers each of them, whichever workload is named.
        let tracer = Tracer::default();
        let mut layers = Record::default();
        sweep::traced(&ctx, &tracer, &mut layers);
        replay::traced(&ctx, &tracer, &mut layers);
        serve::traced(&ctx, &tracer, &mut layers)?;
        add_span_totals(&tracer, &mut layers);
        rec.absorb(layers);
        write_spans(&tracer, &args.workload, args.seed);
    } else {
        match args.workload.as_str() {
            "paper-sweep" => sweep::run(&ctx, &mut rec)?,
            "replay" => replay::run(&ctx, &mut rec)?,
            _ => serve::run(&ctx, &mut rec)?,
        }
        rec.metric(
            "peak_rss_mb",
            report::peak_rss_mb(),
            "MB",
            "peak resident set size of the benchmark process (MiB)",
        );
    }
    Ok(rec)
}

/// Layer totals that several workloads contribute to, from the spans.
fn add_span_totals(t: &Tracer, rec: &mut Record) {
    let s = |ns: u64| ns as f64 * 1e-9;
    let (gen, _, gens) = t.total("trace.gen");
    rec.metric(
        "trace.gen_s",
        s(gen),
        "s",
        format!(
            "host s generating benchmark traces ({gens} traces, paper-sweep and replay set-up)"
        ),
    );
    let (stream, items, _) = t.total("trace.stream");
    rec.metric(
        "trace.stream_s",
        s(stream),
        "s",
        format!("host s pulling {items} instructions from TraceSource::stream"),
    );
    rec.metric(
        "workgen.gen_s",
        s(t.total("workgen.gen").0),
        "s",
        "host s materialising the store-heavy workgen stream (replay set-up)",
    );
    let (image, calls, _) = t.total("mem.image");
    rec.metric(
        "mem.image_s",
        s(image),
        "s",
        "host s in TraceSource::initial_mem, the per-cell memory-image copy",
    );
    rec.metric(
        "mem.image_calls",
        calls as f64,
        "count",
        "memory-image copies",
    );
    let (hier, accesses, _) = t.total("hierarchy");
    rec.metric(
        "hierarchy.reads",
        t.counter("hierarchy.reads") as f64,
        "count",
        "reads through the timing CacheSim wrapper",
    );
    rec.metric(
        "hierarchy.writes",
        t.counter("hierarchy.writes") as f64,
        "count",
        "writes through the timing CacheSim wrapper",
    );
    rec.metric(
        "hierarchy.access_s",
        s(hier),
        "s",
        "host s inside hierarchy accesses and L1 probes",
    );
    rec.metric(
        "hierarchy.access_ns",
        hier as f64 / accesses.max(1) as f64,
        "ns",
        format!("host ns per access or L1 probe ({accesses})"),
    );
}

/// Spans stay in memory during the run and are written out at exit.
fn write_spans(t: &Tracer, workload: &str, seed: u64) {
    let dir = std::path::Path::new(".perfbench-out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let written = std::fs::create_dir_all(dir)
        .map_err(|e| SimError::io(dir.display().to_string(), &e))
        .and_then(|()| ccp_sim::json::write_atomic(&path, &t.to_jsonl()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: spans not written: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = &args.record {
        let seeds: Vec<u64> = (args.seeds.0..=args.seeds.1).collect();
        let (text, file) = match w.as_str() {
            "paper-sweep" => (sweep::record_expectations(&seeds), "paper-sweep.txt"),
            "replay" => (replay::record_expectations(&seeds), "replay.txt"),
            _ => {
                eprintln!("perfbench: {w} computes its oracle in set-up; nothing to record");
                return ExitCode::from(2);
            }
        };
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("expect")
            .join(file);
        return match ccp_sim::json::write_atomic(&path, &text) {
            Ok(()) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(rec) => {
            rec.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
