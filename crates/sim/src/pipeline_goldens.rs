//! Golden fixtures for the out-of-order pipeline's [`RunStats`].
//!
//! The fastsim goldens (`tests/expected_stats/`) pin the hierarchy alone;
//! these pin the timing model that produces the paper's execution-time
//! figures. Both sets are rendered by `repro difftest --render-goldens DIR`,
//! these into [`PIPELINE_GOLDEN_DIR`] beside `DIR`, and checked by
//! `tests/pipeline_goldens.rs`:
//!
//! * **Paper cells** — the full [`RunStats`] JSON (cycles, the CPI stack,
//!   the Figure 14/15 inputs `miss_cycles`/`ready_len_sum`, hit sources,
//!   hierarchy counters) of every [`GOLDEN_BENCHMARKS`] × design ×
//!   {paper, halved miss penalty} cell at the paper's [`PipelineConfig`].
//! * **Corner corpus** — seeded random programs × ten non-paper
//!   configurations × {BC, CPP}, one [`RunStats`] fingerprint per run in
//!   [`CORNER_FILE`]. Each configuration starves or exaggerates one
//!   structure (one MSHR, one LSQ slot, a two-entry window, a one-entry
//!   IFQ, ...), so stalls end on every kind of event the pipeline's time
//!   advance must honour: I-cache refills, MSHR-blocked loads, mispredict
//!   restarts, functional-unit contention.
//! * **Conventional hierarchies** — every golden benchmark plus three
//!   synthetic streams × the six conventional designs (BC, BCC, HAC, BCP
//!   and the SPT/VC extensions), one [`RunStats`] fingerprint per run in
//!   [`HIERARCHY_FILE`], so each side structure's accounting is pinned.

use crate::checkpoint::stats_to_json;
use crate::difftest::{GOLDEN_BENCHMARKS, GOLDEN_BUDGET, GOLDEN_SEED};
use crate::json::{write_atomic, Json};
use crate::sweep::{run_cell_source_scheme, Workload};
use ccp_cache::{CacheSim, DesignKind, StrideHierarchy, VictimHierarchy};
use ccp_errors::{SimError, SimResult};
use ccp_pipeline::{run_source, PipelineConfig, PredictorKind, RunStats};
use ccp_schemes::SchemeKind;
use ccp_trace::{benchmark_by_name, Benchmark, ProgramCtx, Trace, H};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directory (a sibling of the fastsim `expected_stats/`) holding the
/// pipeline fixtures.
pub const PIPELINE_GOLDEN_DIR: &str = "expected_pipeline";

/// File in [`PIPELINE_GOLDEN_DIR`] holding the corner-corpus fingerprints.
pub const CORNER_FILE: &str = "corners.txt";

/// File in [`PIPELINE_GOLDEN_DIR`] holding the conventional-hierarchy
/// fingerprints.
pub const HIERARCHY_FILE: &str = "hierarchies.txt";

/// Synthetic streams the hierarchy table adds to [`GOLDEN_BENCHMARKS`]: a
/// stride the RPT learns, a pointer chase, and a store-heavy zipf stream
/// that drives dirty victims through every side structure.
const HIERARCHY_WORKGENS: [&str; 3] = [
    "workgen:addr=strided",
    "workgen:addr=chase",
    "workgen:addr=zipf,store=0.5",
];

/// Random programs in the corner corpus (seeds `0..CORNER_PROGRAMS`).
const CORNER_PROGRAMS: u64 = 8;

/// Designs the corner corpus runs each program on: the plain baseline and
/// the paper's prefetching hierarchy (whose affiliated hits and partial
/// fills give loads latencies the baseline never produces).
const CORNER_DESIGNS: [DesignKind; 2] = [DesignKind::Bc, DesignKind::Cpp];

/// Fixture file name of one paper cell: `{bench}.{DESIGN}.{paper|halved}.json`.
pub fn pipeline_fixture_name(bench: &str, design: DesignKind, halved: bool) -> String {
    format!("{bench}.{}.{}.json", design.name(), latency_name(halved))
}

fn latency_name(halved: bool) -> &'static str {
    if halved {
        "halved"
    } else {
        "paper"
    }
}

/// Renders the pinned document of one paper cell: the run parameters and
/// the cell's full [`RunStats`] in the checkpoint's JSON vocabulary.
pub fn pipeline_golden_doc(bench: &Benchmark, design: DesignKind, halved: bool) -> String {
    let trace = bench.trace(GOLDEN_BUDGET, GOLDEN_SEED);
    let s = run_cell_source_scheme(&trace, design, SchemeKind::Cpp, halved);
    Json::obj([
        ("benchmark", Json::from(bench.full_name())),
        ("design", Json::from(design.name())),
        ("latency", Json::from(latency_name(halved))),
        ("budget", Json::from(GOLDEN_BUDGET as u64)),
        ("seed", Json::from(GOLDEN_SEED)),
        ("stats", stats_to_json(&s)),
    ])
    .to_string()
}

/// The corner corpus's pipeline configurations: each differs from the
/// paper's in one starved or exaggerated structure.
fn corner_configs() -> Vec<(&'static str, PipelineConfig)> {
    let with = |f: fn(&mut PipelineConfig)| {
        let mut c = PipelineConfig::paper();
        f(&mut c);
        c
    };
    vec![
        ("mshrs=1", with(|c| c.mshrs = 1)),
        ("lsq=1", with(|c| c.lsq_size = 1)),
        ("ruu=2", with(|c| c.ruu_size = 2)),
        ("ifq=1", with(|c| c.ifq_size = 1)),
        ("fetch=1", with(|c| c.fetch_width = 1)),
        ("penalty=0", with(|c| c.mispredict_penalty = 0)),
        ("penalty=20", with(|c| c.mispredict_penalty = 20)),
        ("gshare", with(|c| c.predictor = PredictorKind::Gshare)),
        (
            "scalar",
            with(|c| {
                c.fetch_width = 1;
                c.dispatch_width = 1;
                c.issue_width = 1;
                c.commit_width = 1;
                c.ruu_size = 4;
                c.lsq_size = 2;
                c.mshrs = 2;
            }),
        ),
        (
            "one-fu",
            with(|c| {
                c.issue_width = 2;
                c.n_ialu = 1;
                c.n_imuldiv = 1;
                c.n_falu = 1;
                c.n_fmuldiv = 1;
                c.n_memports = 1;
            }),
        ),
    ]
}

/// SplitMix64: a tiny deterministic generator for the corner programs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

/// Small hot data region (L1-resident after first touch).
const HOT_BASE: u32 = 0x0010_0000;
const HOT_WORDS: u32 = 256;
/// Large cold region (misses L1 and L2).
const COLD_BASE: u32 = 0x0100_0000;
const COLD_WORDS: u32 = 1 << 18;

/// One seeded random program: basic blocks of 4–40 instructions scattered
/// over 48 labels (12 KB of code against the 8 KB I-cache, so blocks
/// conflict and refill), each closed by a random-direction branch; loads
/// and stores hit a small hot region, a 1 MB cold one, or the line paired
/// with the last cold access, and memory words mix small values,
/// same-region pointers and incompressible noise; operands
/// depend on one of the last eight results or on nothing.
fn corner_program(seed: u64) -> Trace {
    let mut rng = SplitMix(seed ^ 0xC0DE_C0DE);
    let mut ctx = ProgramCtx::new(&format!("corner{seed}"));
    let value = |rng: &mut SplitMix, addr: u32| match rng.below(3) {
        0 => rng.below(64),
        1 => (addr & !0xFFFF) | (rng.below(0x4000) << 2),
        _ => rng.next() as u32 | 0x8000_0000,
    };
    for w in 0..HOT_WORDS {
        let a = HOT_BASE + w * 4;
        let v = value(&mut rng, a);
        ctx.init_write(a, v);
    }
    for _ in 0..2048 {
        let a = COLD_BASE + rng.below(COLD_WORDS) * 4;
        let v = value(&mut rng, a);
        ctx.init_write(a, v);
    }
    let labels: Vec<u32> = (0..48).map(|_| ctx.label()).collect();
    let mut recent = [H::NONE; 8];
    let mut cold = COLD_BASE;
    let len = 400 + rng.below(300) as usize;
    while ctx.len() < len {
        ctx.at(labels[rng.below(48) as usize]);
        for _ in 0..4 + rng.below(37) {
            let dep = |rng: &mut SplitMix| {
                if rng.below(3) == 0 {
                    H::NONE
                } else {
                    recent[rng.below(8) as usize]
                }
            };
            let (d1, d2) = (dep(&mut rng), dep(&mut rng));
            let addr = match rng.below(4) {
                0 | 1 => HOT_BASE + rng.below(HOT_WORDS) * 4,
                2 => {
                    cold = COLD_BASE + rng.below(COLD_WORDS) * 4;
                    cold
                }
                // A word of the line paired with the last cold one: CPP's
                // affiliated location, a miss for the other designs.
                _ => ((cold ^ 0x40) & !0x3C) | (rng.below(16) << 2),
            };
            let h = match rng.below(16) {
                0..=4 => ctx.alu(d1, d2),
                5 => ctx.mult(d1, d2),
                6 => ctx.div(d1, d2),
                7 => ctx.falu(d1, d2),
                8 => ctx.fmul(d1, d2),
                9 => ctx.fdiv(d1, d2),
                10..=12 => ctx.load(addr, d1).0,
                _ => {
                    let v = value(&mut rng, addr);
                    ctx.store(addr, v, d1, d2)
                }
            };
            recent[rng.below(8) as usize] = h;
        }
        let c = recent[rng.below(8) as usize];
        ctx.branch(rng.below(2) == 0, c);
    }
    ctx.finish()
}

/// 64-bit FNV-1a over a [`RunStats`]' JSON rendering: every counter feeds
/// it, so any changed counter changes the fingerprint.
fn stats_fingerprint(s: &RunStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stats_to_json(s).to_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Renders the corner table: a header, then one line per program ×
/// configuration × design — `program config design cycles fingerprint`.
pub fn corner_table() -> String {
    let mut s = String::from(
        "# Pipeline corner corpus: seeded random programs x non-paper PipelineConfigs x {BC, CPP}.\n\
         # Columns: program config design cycles fnv1a64(RunStats JSON).\n\
         # Regenerate: repro difftest --render-goldens crates/sim/tests/expected_stats\n",
    );
    let configs = corner_configs();
    for seed in 0..CORNER_PROGRAMS {
        let trace = corner_program(seed);
        for (name, cfg) in &configs {
            for design in CORNER_DESIGNS {
                let mut cache = crate::build_design(design);
                let st = run_source(&trace, cache.as_mut(), cfg);
                let _ = writeln!(
                    s,
                    "{} {name} {} {} {:016x}",
                    trace.name,
                    design.name(),
                    st.cycles,
                    stats_fingerprint(&st)
                );
            }
        }
    }
    s
}

/// The paper's four conventional designs, then the SPT and VC extensions,
/// each in its paper configuration.
fn conventional_designs() -> [(&'static str, Box<dyn CacheSim>); 6] {
    let paper = |d: DesignKind| (d.name(), crate::build_design(d));
    [
        paper(DesignKind::Bc),
        paper(DesignKind::Bcc),
        paper(DesignKind::Hac),
        paper(DesignKind::Bcp),
        ("SPT", Box::new(StrideHierarchy::paper())),
        ("VC", Box::new(VictimHierarchy::paper())),
    ]
}

/// Renders the hierarchy table: a header, then one line per workload ×
/// conventional design — `workload design cycles fingerprint` — at the
/// golden budget and seed with the paper's latencies.
pub fn hierarchy_table() -> String {
    let mut s = String::from(
        "# Conventional hierarchies: golden benchmarks + workgen streams x {BC, BCC, HAC, BCP, SPT, VC}.\n\
         # Columns: workload design cycles fnv1a64(RunStats JSON).\n\
         # Regenerate: repro difftest --render-goldens crates/sim/tests/expected_stats\n",
    );
    for name in GOLDEN_BENCHMARKS.iter().chain(&HIERARCHY_WORKGENS) {
        let workload = Workload::by_name(name).expect("hierarchy workload resolves");
        let source = workload.source(GOLDEN_BUDGET, GOLDEN_SEED);
        for (design, mut cache) in conventional_designs() {
            let st = run_source(source.as_ref(), cache.as_mut(), &PipelineConfig::paper());
            let _ = writeln!(
                s,
                "{name} {design} {} {:016x}",
                st.cycles,
                stats_fingerprint(&st)
            );
        }
    }
    s
}

/// Regenerates every pipeline fixture under `dir`: one JSON file per
/// paper cell, [`CORNER_FILE`] and [`HIERARCHY_FILE`]. Returns the files
/// written.
pub fn render_pipeline_goldens(dir: &Path) -> SimResult<Vec<PathBuf>> {
    std::fs::create_dir_all(dir).map_err(|e| SimError::io(dir.display().to_string(), &e))?;
    let mut written = Vec::new();
    for name in GOLDEN_BENCHMARKS {
        let bench = benchmark_by_name(name).ok_or_else(|| SimError::unknown("benchmark", name))?;
        for design in DesignKind::ALL {
            for halved in [false, true] {
                let path = dir.join(pipeline_fixture_name(name, design, halved));
                let mut doc = pipeline_golden_doc(&bench, design, halved);
                doc.push('\n');
                write_atomic(&path, &doc)?;
                written.push(path);
            }
        }
    }
    for (file, table) in [
        (CORNER_FILE, corner_table()),
        (HIERARCHY_FILE, hierarchy_table()),
    ] {
        let path = dir.join(file);
        write_atomic(&path, &table)?;
        written.push(path);
    }
    Ok(written)
}
