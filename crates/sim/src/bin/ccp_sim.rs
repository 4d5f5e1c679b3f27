//! `ccp-sim` — the hardened, resumable sweep driver.
//!
//! ```text
//! ccp-sim sweep [OPTIONS]
//!
//! OPTIONS:
//!   --budget N          instructions per workload        (default 60000)
//!   --seed S            workload generation seed         (default 1)
//!   --threads T         worker threads                   (default: all cores)
//!   --workloads L       comma-separated benchmark names and/or workgen:
//!                       specs; a spec keeps its own key=value
//!                       commas                           (default: all 14)
//!   --designs L         comma-separated design subset    (default: all 5)
//!   --halved            halve the miss penalties (Figure 14 variant)
//!   --scheme S          compression scheme CPP|BDI|FPC   (default CPP)
//!   --retries N         retry transient cell failures    (default 0)
//!   --backoff-ms MS     base retry backoff               (default 50)
//!   --watchdog N        per-cell streamed-instruction cap (0 = auto)
//!   --max-cells N       stop after N cells (rest report `skipped`)
//!   --checkpoint FILE   record completed cells to a JSONL checkpoint
//!   --resume FILE       load FILE as checkpoint, skip finished cells,
//!                       and keep recording into it
//!   --json FILE         write the full outcome grid as JSON (atomic)
//!
//! EXIT CODE: 0 all cells ok · 1 any cell failed (or bad I/O)
//!            2 usage error  · 3 grid incomplete (cells skipped)
//! ```
//!
//! Interrupt a sweep (Ctrl-C, kill, power loss) and re-run with `--resume`:
//! finished cells are skipped and the final report is byte-identical to an
//! uninterrupted run.

use ccp_sim::sweep::{run_sweep_resilient, CellStatus, ResilienceConfig, Workload};
use ccp_sim::SweepConfig;

const HELP: &str = "ccp-sim — hardened, resumable sweep driver
usage: ccp-sim sweep [--budget N] [--seed S] [--threads T]
                     [--workloads a,b,..] [--designs BC,CPP,..] [--halved]
                     [--scheme CPP|BDI|FPC]
                     [--retries N] [--backoff-ms MS] [--watchdog N]
                     [--max-cells N] [--checkpoint FILE | --resume FILE]
                     [--json FILE]
exit codes: 0 ok · 1 failed cells · 2 usage · 3 incomplete (skipped cells)";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{HELP}");
    std::process::exit(2);
}

struct Args {
    config: SweepConfig,
    resilience: ResilienceConfig,
    json_path: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        Some("sweep") => {}
        Some("--help") | Some("-h") => {
            println!("{HELP}");
            std::process::exit(0);
        }
        Some(other) => usage(&format!("unknown subcommand {other:?}")),
        None => usage("missing subcommand (try `ccp-sim sweep`)"),
    }

    let mut config = SweepConfig::new(60_000, 1);
    let mut resilience = ResilienceConfig::default();
    let mut json_path = None;
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--budget" => {
                config.budget = need(&mut it, "--budget")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --budget: {e}")));
            }
            "--seed" => {
                config.seed = need(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --seed: {e}")));
            }
            "--threads" => {
                config.threads = need(&mut it, "--threads")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --threads: {e}")));
            }
            "--workloads" => {
                config.workloads = Workload::parse_list(&need(&mut it, "--workloads"));
            }
            "--designs" => {
                config.designs = need(&mut it, "--designs")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--halved" => config.halved_miss_penalty = true,
            "--scheme" => {
                let s = need(&mut it, "--scheme");
                config.scheme = ccp_schemes::SchemeKind::from_name(&s)
                    .unwrap_or_else(|| usage(&format!("bad --scheme: unknown scheme {s:?}")))
                    .name()
                    .to_string();
            }
            "--retries" => {
                resilience.retries = need(&mut it, "--retries")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --retries: {e}")));
            }
            "--backoff-ms" => {
                resilience.backoff_ms = need(&mut it, "--backoff-ms")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --backoff-ms: {e}")));
            }
            "--watchdog" => {
                resilience.watchdog_limit = need(&mut it, "--watchdog")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --watchdog: {e}")));
            }
            "--max-cells" => {
                resilience.max_cells = Some(
                    need(&mut it, "--max-cells")
                        .parse()
                        .unwrap_or_else(|e| usage(&format!("bad --max-cells: {e}"))),
                );
            }
            "--checkpoint" => {
                resilience.checkpoint = Some(need(&mut it, "--checkpoint").into());
                resilience.resume = false;
            }
            "--resume" => {
                resilience.checkpoint = Some(need(&mut it, "--resume").into());
                resilience.resume = true;
            }
            "--json" => json_path = Some(std::path::PathBuf::from(need(&mut it, "--json"))),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    Args {
        config,
        resilience,
        json_path,
    }
}

fn main() {
    let args = parse_args();
    let sweep = match run_sweep_resilient(&args.config, &args.resilience) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error [{}]: {e}", e.class());
            std::process::exit(if e.class() == "unknown-name" { 2 } else { 1 });
        }
    };

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

    if let Some(path) = &args.json_path {
        let doc = sweep.to_json().to_string();
        if let Err(e) = ccp_sim::json::write_atomic(path, &doc) {
            eprintln!("error [{}]: {e}", e.class());
            std::process::exit(1);
        }
        eprintln!("wrote JSON outcome grid to {}", path.display());
    }

    if sweep.failed_count() > 0 {
        std::process::exit(1);
    }
    if sweep.skipped_count() > 0 {
        std::process::exit(3);
    }
}
