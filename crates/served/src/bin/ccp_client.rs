//! `ccp-client` — CLI for the `ccp-served` protocol.
//!
//! ```text
//! ccp-client --addr HOST:PORT COMMAND [OPTIONS]
//!
//! COMMANDS:
//!   submit    run one job and print its headline stats
//!       --workload W     benchmark name or workgen: spec   (required)
//!       --design D       BC | BCC | HAC | BCP | CPP        (required)
//!       --budget N       instruction budget                (default 60000)
//!       --seed S         workload seed                     (default 1)
//!       --halved         halved miss penalties
//!       --warmup N       warm-up memory ops                (default 0)
//!       --fault F        chaos probe fault class (pa|vcp|aa|bitflip|pairing)
//!       --deadline-ms MS server-side deadline: an expired job is
//!                        cancelled, never cached    (default 0 = none)
//!       --json FILE      write the stats object (atomic; same shape as a
//!                        `repro sweep --json` cell)
//!   bench     closed-loop zipf load generator
//!       --conns N        concurrent connections            (default 4)
//!       --requests N     total submissions                 (default 400)
//!       --jobs N         distinct job specs (zipf ranks)   (default 32)
//!       --skew Z         zipf skew                         (default 1.0)
//!       --budget N       budget per job                    (default 2000)
//!       --design D / --workload W / --seed S   job template
//!       --json FILE      write the bench report as JSON (atomic)
//!       --min-throughput X   exit 1 if completed req/s < X
//!       --min-hit-rate F     exit 1 if (hits+joined)/submitted < F
//!   stats     print the server counter snapshot
//!   ping      liveness probe
//!   shutdown  ask the server to drain and exit
//!
//! EXIT CODE: 0 ok · 1 job error / failed assertion · 2 usage error
//! ```

use ccp_served::{run_bench, BenchConfig, Client, SubmitCtl};
use ccp_sim::checkpoint::stats_from_json;
use ccp_sim::json::write_atomic;
use ccp_sim::JobSpec;

const HELP: &str = "ccp-client — client CLI for ccp-served
usage: ccp-client --addr HOST:PORT \\
         submit --workload W --design D [--budget N] [--seed S] [--halved]
                [--warmup N] [--fault F] [--deadline-ms MS] [--json FILE]
       | bench [--conns N] [--requests N] [--jobs N] [--skew Z] [--budget N]
               [--design D] [--workload W] [--seed S] [--json FILE]
               [--min-throughput X] [--min-hit-rate F]
       | stats | ping | shutdown
exit codes: 0 ok · 1 job error / failed assertion · 2 usage error";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{HELP}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("ccp-client: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let addr =
        take_value(&mut args, "--addr").unwrap_or_else(|| usage("--addr HOST:PORT is required"));
    let Some(command) = args.first().cloned() else {
        usage("missing command");
    };
    args.remove(0);
    match command.as_str() {
        "submit" => submit(&addr, args),
        "bench" => bench(&addr, args),
        "stats" => {
            ensure_empty(&args);
            let mut c = connect(&addr);
            match c.stats() {
                Ok(s) => println!(
                    "submitted {} · completed {} · failed {} · canceled {}\n\
                     cache: {} hits + {} joined / {} misses · {} entries · {} evictions\n\
                     sims run {} · queue depth {} · workers {} · draining {}\n\
                     hardening: {} accept errors · {} shed · {} deadline expired · \
                     {} quarantined",
                    s.submitted,
                    s.completed,
                    s.failed,
                    s.canceled,
                    s.hits,
                    s.joined,
                    s.misses,
                    s.entries,
                    s.evictions,
                    s.sims_run,
                    s.queue_depth,
                    s.workers,
                    s.draining,
                    s.accept_errors,
                    s.shed,
                    s.deadline_expired,
                    s.disk_quarantined,
                ),
                Err(e) => fail(&e.to_string()),
            }
        }
        "ping" => {
            ensure_empty(&args);
            let mut c = connect(&addr);
            match c.ping() {
                Ok(()) => println!("pong from {addr}"),
                Err(e) => fail(&e.to_string()),
            }
        }
        "shutdown" => {
            ensure_empty(&args);
            let mut c = connect(&addr);
            match c.shutdown() {
                Ok(detail) => println!("server draining: {detail}"),
                Err(e) => fail(&e.to_string()),
            }
        }
        "--help" | "-h" => println!("{HELP}"),
        other => usage(&format!("unknown command {other:?}")),
    }
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| fail(&e.to_string()))
}

/// Removes `flag VALUE` from `args` if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let ix = args.iter().position(|a| a == flag)?;
    if ix + 1 >= args.len() {
        usage(&format!("{flag} needs a value"));
    }
    let v = args.remove(ix + 1);
    args.remove(ix);
    Some(v)
}

/// Removes a bare `flag` from `args` if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(ix) = args.iter().position(|a| a == flag) {
        args.remove(ix);
        true
    } else {
        false
    }
}

fn parse<T: std::str::FromStr>(v: String, flag: &str) -> T
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .unwrap_or_else(|e| usage(&format!("bad {flag}: {e}")))
}

fn ensure_empty(args: &[String]) {
    if let Some(extra) = args.first() {
        usage(&format!("unexpected argument {extra:?}"));
    }
}

fn submit(addr: &str, mut args: Vec<String>) {
    let workload =
        take_value(&mut args, "--workload").unwrap_or_else(|| usage("submit needs --workload"));
    let design =
        take_value(&mut args, "--design").unwrap_or_else(|| usage("submit needs --design"));
    let mut spec = JobSpec::new(workload, design);
    if let Some(v) = take_value(&mut args, "--budget") {
        spec.budget = parse(v, "--budget");
    }
    if let Some(v) = take_value(&mut args, "--seed") {
        spec.seed = parse(v, "--seed");
    }
    spec.halved = take_flag(&mut args, "--halved");
    if let Some(v) = take_value(&mut args, "--warmup") {
        spec.warmup = parse(v, "--warmup");
    }
    spec.fault = take_value(&mut args, "--fault");
    let deadline_ms: u64 = take_value(&mut args, "--deadline-ms")
        .map(|v| parse(v, "--deadline-ms"))
        .unwrap_or(0);
    let json_path = take_value(&mut args, "--json");
    ensure_empty(&args);

    let mut client = connect(addr);
    match client.submit_wait_ctl(&spec, &SubmitCtl { deadline_ms }) {
        Ok(outcome) => {
            let stats = stats_from_json(&outcome.stats).unwrap_or_default();
            println!(
                "job {} {}: cycles {} instructions {} (key {}, {} progress events)",
                outcome.job,
                if outcome.cached { "cached" } else { "computed" },
                stats.cycles,
                stats.instructions,
                outcome.key,
                outcome.progress_events,
            );
            if let Some(path) = json_path {
                let text = outcome.stats.to_string();
                write_atomic(std::path::Path::new(&path), &text)
                    .unwrap_or_else(|e| fail(&e.to_string()));
            }
        }
        Err(e) => fail(&format!("job failed [{}]: {e}", e.class())),
    }
}

fn bench(addr: &str, mut args: Vec<String>) {
    let mut cfg = BenchConfig {
        addr: addr.to_string(),
        ..Default::default()
    };
    if let Some(v) = take_value(&mut args, "--conns") {
        cfg.conns = parse(v, "--conns");
    }
    if let Some(v) = take_value(&mut args, "--requests") {
        cfg.requests = parse(v, "--requests");
    }
    if let Some(v) = take_value(&mut args, "--jobs") {
        cfg.distinct = parse(v, "--jobs");
    }
    if let Some(v) = take_value(&mut args, "--skew") {
        cfg.skew = parse(v, "--skew");
    }
    if let Some(v) = take_value(&mut args, "--budget") {
        cfg.budget = parse(v, "--budget");
    }
    if let Some(v) = take_value(&mut args, "--design") {
        cfg.design = v;
    }
    if let Some(v) = take_value(&mut args, "--workload") {
        cfg.workload = v;
    }
    if let Some(v) = take_value(&mut args, "--seed") {
        cfg.seed = parse(v, "--seed");
    }
    let json_path = take_value(&mut args, "--json");
    let min_throughput: Option<f64> =
        take_value(&mut args, "--min-throughput").map(|v| parse(v, "--min-throughput"));
    let min_hit_rate: Option<f64> =
        take_value(&mut args, "--min-hit-rate").map(|v| parse(v, "--min-hit-rate"));
    ensure_empty(&args);

    let report = match run_bench(&cfg) {
        Ok(r) => r,
        Err(e) => fail(&e.to_string()),
    };
    println!(
        "bench: {} requests · {} conns · {} distinct jobs · zipf({})",
        cfg.requests, cfg.conns, cfg.distinct, cfg.skew
    );
    println!("{}", report.render());
    if let Some(path) = json_path {
        let text = report.to_json().to_string();
        write_atomic(std::path::Path::new(&path), &text).unwrap_or_else(|e| fail(&e.to_string()));
    }
    if report.errors > 0 {
        fail(&format!("{} requests errored", report.errors));
    }
    if let Some(min) = min_throughput {
        if report.throughput < min {
            fail(&format!(
                "throughput {:.1} req/s below required {min:.1}",
                report.throughput
            ));
        }
    }
    if let Some(min) = min_hit_rate {
        if report.hit_rate < min {
            fail(&format!(
                "hit rate {:.3} below required {min:.3}",
                report.hit_rate
            ));
        }
    }
}
