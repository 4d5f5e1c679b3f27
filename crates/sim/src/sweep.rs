//! The simulation sweep: every workload × every design, in parallel.
//!
//! A workload is either one of the fourteen benchmark imitations or a
//! `ccp-workgen` spec (`workgen:addr=zipf,small=0.6,...`) — the sweep
//! machinery treats both as [`TraceSource`]s and never needs to know
//! which is which. Each cell is an independent (source, hierarchy,
//! pipeline) triple, so the sweep parallelizes embarrassingly; benchmark
//! traces are generated once per workload and shared read-only across the
//! design runs (the HPC guides' scoped-thread data-parallel idiom, via
//! `std::thread::scope`), while synthetic sources regenerate their stream
//! per cell (pure integer work, no storage).

use crate::build_design_scheme;
use crate::checkpoint::DiskTier;
use crate::job::JobSpec;
use ccp_cache::DesignKind;
use ccp_errors::{SimError, SimResult};
use ccp_pipeline::{run_source, PipelineConfig, RunStats};
use ccp_schemes::SchemeKind;
use ccp_trace::{all_benchmarks, benchmark_by_name, BenchSource, Benchmark, TraceSource};
use ccp_workgen::{SynthSource, WorkgenSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Mutex;

/// One sweep workload: a benchmark imitation or a synthetic generator.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// One of the fourteen benchmark imitations.
    Bench(Benchmark),
    /// A `ccp-workgen` synthetic specification.
    Synthetic(WorkgenSpec),
}

impl Workload {
    /// Resolves a workload name: a benchmark name (`health`, `181.mcf`,
    /// ...) or a workgen spec string (anything starting with `workgen:`).
    pub fn by_name(name: &str) -> SimResult<Workload> {
        let name = name.trim();
        if name.starts_with("workgen:") {
            WorkgenSpec::parse(name).map(Workload::Synthetic)
        } else {
            benchmark_by_name(name)
                .map(Workload::Bench)
                .ok_or_else(|| SimError::unknown("benchmark (not a workgen: spec either)", name))
        }
    }

    /// Splits a comma-separated workload list (the `--workloads` option)
    /// into names. A `workgen:` spec separates its own keys with commas
    /// too, so a `key=value` token that follows a spec joins that spec:
    /// `health,workgen:addr=chase,nodes=512,mst` is three workloads.
    pub fn parse_list(list: &str) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for token in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match names.last_mut() {
                Some(spec)
                    if spec.starts_with("workgen:")
                        && token.contains('=')
                        && !token.starts_with("workgen:") =>
                {
                    spec.push(',');
                    spec.push_str(token);
                }
                _ => names.push(token.to_string()),
            }
        }
        names
    }

    /// The name cells are keyed by: paper spelling for benchmarks, the
    /// canonical spec string for synthetics.
    pub fn full_name(&self) -> String {
        match self {
            Workload::Bench(b) => b.full_name(),
            Workload::Synthetic(s) => s.to_string(),
        }
    }

    /// The workload as a replayable [`TraceSource`] pinned to a budget and
    /// seed. Benchmark sources generate (and cache) their trace on first
    /// use; synthetic sources hold no instruction storage at all.
    pub fn source(&self, budget: usize, seed: u64) -> Box<dyn TraceSource + Send> {
        match self {
            Workload::Bench(b) => Box::new(BenchSource::new(*b, budget, seed)),
            Workload::Synthetic(s) => Box::new(SynthSource::new(*s, seed, budget as u64)),
        }
    }
}

/// Sweep parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Instruction budget per benchmark.
    pub budget: usize,
    /// Workload generation seed.
    pub seed: u64,
    /// Workload names — benchmark names and/or `workgen:` specs (empty =
    /// all fourteen benchmarks).
    pub workloads: Vec<String>,
    /// Designs to run (paper order by default).
    pub designs: Vec<String>,
    /// Halve the miss penalties (the Figure 14 variant runs).
    pub halved_miss_penalty: bool,
    /// Compression scheme for the CPP design's compressed levels (`CPP`,
    /// `BDI`, `FPC`). Baseline designs ignore it.
    pub scheme: String,
    /// Worker threads (0 = one per cell up to available parallelism).
    pub threads: usize,
}

impl SweepConfig {
    /// A sweep over all five designs with the paper's latencies.
    pub fn new(budget: usize, seed: u64) -> Self {
        SweepConfig {
            budget,
            seed,
            workloads: Vec::new(),
            designs: DesignKind::ALL
                .iter()
                .map(|d| d.name().to_string())
                .collect(),
            halved_miss_penalty: false,
            scheme: SchemeKind::Cpp.name().to_string(),
            threads: 0,
        }
    }

    /// Parses the configured scheme name.
    pub fn scheme_kind(&self) -> SimResult<SchemeKind> {
        SchemeKind::from_name(&self.scheme).ok_or_else(|| SimError::unknown("scheme", &self.scheme))
    }

    /// Resolves the configured workload list (empty = every benchmark).
    pub fn workload_list(&self) -> SimResult<Vec<Workload>> {
        if self.workloads.is_empty() {
            Ok(all_benchmarks().into_iter().map(Workload::Bench).collect())
        } else {
            self.workloads
                .iter()
                .map(|n| Workload::by_name(n))
                .collect()
        }
    }

    /// The configured workload names (empty = every benchmark's name), in
    /// run order, without requiring each to resolve.
    pub fn workload_names(&self) -> Vec<String> {
        if self.workloads.is_empty() {
            all_benchmarks().iter().map(|b| b.full_name()).collect()
        } else {
            self.workloads.clone()
        }
    }

    /// Parsed design list.
    pub fn design_kinds(&self) -> SimResult<Vec<DesignKind>> {
        self.designs
            .iter()
            .map(|s| DesignKind::from_name(s).ok_or_else(|| SimError::unknown("design", s)))
            .collect()
    }
}

/// Results of one sweep: `(workload full name, design) → RunStats`.
#[derive(Debug)]
pub struct Sweep {
    /// Config the sweep ran with.
    pub config: SweepConfig,
    /// Workload names in request order (benchmarks keep paper order).
    pub benchmarks: Vec<String>,
    /// Designs in requested order.
    pub designs: Vec<DesignKind>,
    cells: BTreeMap<(String, &'static str), RunStats>,
}

impl Sweep {
    /// The run statistics for `(benchmark, design)`.
    ///
    /// Panics if the pair was not part of this sweep — like slice
    /// indexing, asking for a cell that was never run is a caller bug,
    /// and the figure code only indexes with the sweep's own config.
    pub fn cell(&self, benchmark: &str, design: DesignKind) -> &RunStats {
        self.cells
            .get(&(benchmark.to_string(), design.name()))
            .unwrap_or_else(|| panic!("no cell for {benchmark}/{}", design.name()))
    }

    /// Ratio of `metric(design)` to `metric(BC)` per benchmark — the
    /// normalization every comparison figure in the paper uses.
    pub fn normalized<F: Fn(&RunStats) -> f64>(
        &self,
        design: DesignKind,
        metric: F,
    ) -> Vec<(String, f64)> {
        self.benchmarks
            .iter()
            .map(|b| {
                let base = metric(self.cell(b, DesignKind::Bc));
                let val = metric(self.cell(b, design));
                let r = if base == 0.0 { 1.0 } else { val / base };
                (b.clone(), r)
            })
            .collect()
    }
}

/// Runs one cell: a fresh hierarchy of `design`, with `scheme` on the CPP
/// design's compressed levels (baselines ignore it), over `source` — a
/// benchmark trace or a streaming generator alike.
pub fn run_cell_source_scheme(
    source: &dyn TraceSource,
    design: DesignKind,
    scheme: SchemeKind,
    halved: bool,
) -> RunStats {
    let mut cache = build_design_scheme(ccp_cache::HierarchyConfig::paper(design), scheme);
    if halved {
        let lat = cache.latencies().halved_miss_penalty();
        cache.set_latencies(lat);
    }
    run_source(source, cache.as_mut(), &PipelineConfig::paper())
}

/// Runs the configured workloads (all benchmarks unless
/// [`SweepConfig::workloads`] names a subset or adds `workgen:` specs)
/// against every design, in parallel, and requires the full grid. It is
/// [`run_sweep_resilient`]'s scheduler with an unguarded cell runner: a
/// cell that panics fails the sweep with an error naming that cell.
pub fn run_sweep(config: &SweepConfig) -> SimResult<Sweep> {
    // A misspelt workload is the caller's error, not an incomplete grid.
    config.workload_list()?;
    let scheme = config.scheme_kind()?;
    let halved = config.halved_miss_penalty;
    run_configured(config, &ResilienceConfig::default(), |_, source, design| {
        Ok(run_cell_source_scheme(source, design, scheme, halved))
    })?
    .into_sweep()
}

/// Order-preserving parallel map over a slice using scoped threads and a
/// shared work queue; `threads == 0` means one per available core.
pub(crate) fn parallel_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(
    items: &[T],
    threads: usize,
    f: F,
) -> Vec<R> {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        threads
    };
    let n = items.len();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let workers = threads.min(n.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                // Poison-transparent: the store itself can't panic, so a
                // poisoned lock only means some *other* worker died after
                // its own store — this slot's write is still sound.
                out.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

/// Resilience knobs for [`run_sweep_resilient`] — watchdog, cell cap
/// and result store, layered on top of a [`SweepConfig`].
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Streamed-instruction budget per cell before the watchdog trips
    /// (0 = auto: `2 × budget + 1024`).
    pub watchdog_limit: u64,
    /// Stop scheduling after this many cells have run (remaining cells
    /// report `skipped`). Emulates an interrupted run for resume tests and
    /// time-boxes exploratory sweeps.
    pub max_cells: Option<usize>,
    /// Result store directory: the `.ccpz` [`DiskTier`] that `ccp-served
    /// --store` also reads and writes. A cell whose entry verifies is
    /// restored instead of run, and every completed cell is written to it.
    pub store: Option<PathBuf>,
}

/// Terminal state of one sweep cell.
// `Ok` carries the full RunStats inline: a grid holds at most dozens of
// cells, so the size spread is irrelevant and boxing would just cost an
// indirection on every stats read.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CellStatus {
    /// The cell ran to completion.
    Ok(RunStats),
    /// The cell failed.
    Failed(SimError),
    /// The cell never ran (unresolvable workload or `max_cells` cut).
    Skipped(String),
}

impl CellStatus {
    /// Report keyword: `ok` / `failed` / `skipped`.
    pub fn keyword(&self) -> &'static str {
        match self {
            CellStatus::Ok(_) => "ok",
            CellStatus::Failed(_) => "failed",
            CellStatus::Skipped(_) => "skipped",
        }
    }

    /// Report detail: headline stats, the error, or the skip reason.
    fn detail(&self) -> String {
        match self {
            CellStatus::Ok(s) => format!("cycles={} ipc={:.4}", s.cycles, s.ipc()),
            CellStatus::Failed(e) => e.to_string(),
            CellStatus::Skipped(r) => r.clone(),
        }
    }
}

/// One cell's outcome, with attempt accounting.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Workload full name.
    pub workload: String,
    /// Design short name.
    pub design: &'static str,
    /// Terminal status.
    pub status: CellStatus,
    /// Attempts consumed: 0 for a skipped cell, else 1 (a cell restored
    /// from the store counts as the one run that wrote it).
    pub attempts: u32,
}

/// Results of a hardened sweep: every scheduled cell has an outcome even
/// when some cells crash, wedge, or never run.
#[derive(Debug)]
pub struct ResilientSweep {
    /// Config the sweep ran with.
    pub config: SweepConfig,
    /// Workload names in request order.
    pub workloads: Vec<String>,
    /// Designs in request order.
    pub designs: Vec<DesignKind>,
    cells: BTreeMap<(String, &'static str), CellOutcome>,
}

impl ResilientSweep {
    /// Assembles a sweep from externally produced outcomes, so a caller
    /// that runs cells its own way (the benchmark harness times each one)
    /// renders its report and JSON bytes with exactly the same code as a
    /// local `run_sweep_resilient`.
    pub fn from_outcomes(
        config: SweepConfig,
        workloads: Vec<String>,
        designs: Vec<DesignKind>,
        outcomes: impl IntoIterator<Item = CellOutcome>,
    ) -> Self {
        let cells = outcomes
            .into_iter()
            .map(|c| ((c.workload.clone(), c.design), c))
            .collect();
        ResilientSweep {
            config,
            workloads,
            designs,
            cells,
        }
    }

    /// The outcome for `(workload, design)`.
    pub fn outcome(&self, workload: &str, design: DesignKind) -> Option<&CellOutcome> {
        self.cells.get(&(workload.to_string(), design.name()))
    }

    /// All outcomes in deterministic (workload request order × design
    /// request order) order.
    pub fn outcomes(&self) -> Vec<&CellOutcome> {
        let mut out = Vec::with_capacity(self.cells.len());
        for w in &self.workloads {
            for d in &self.designs {
                if let Some(c) = self.cells.get(&(w.clone(), d.name())) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Cells that completed.
    pub fn ok_count(&self) -> usize {
        self.count(|s| matches!(s, CellStatus::Ok(_)))
    }

    /// Cells that failed terminally.
    pub fn failed_count(&self) -> usize {
        self.count(|s| matches!(s, CellStatus::Failed(_)))
    }

    /// Cells that never ran.
    pub fn skipped_count(&self) -> usize {
        self.count(|s| matches!(s, CellStatus::Skipped(_)))
    }

    fn count(&self, f: impl Fn(&CellStatus) -> bool) -> usize {
        self.cells.values().filter(|c| f(&c.status)).count()
    }

    /// Whether every scheduled cell completed.
    pub fn is_complete(&self) -> bool {
        self.ok_count() == self.cells.len()
    }

    /// Converts to a plain [`Sweep`] when every cell completed (the figure
    /// pipeline requires a full grid); otherwise the error names the first
    /// cell, in report order, that did not.
    pub fn into_sweep(self) -> SimResult<Sweep> {
        if !self.is_complete() {
            let first = self
                .outcomes()
                .into_iter()
                .find(|c| !matches!(c.status, CellStatus::Ok(_)))
                .map(|c| {
                    let (kind, detail) = (c.status.keyword(), c.status.detail());
                    format!("; first {kind} cell {}/{}: {detail}", c.workload, c.design)
                })
                .unwrap_or_default();
            return Err(SimError::corrupt(
                "sweep",
                format!(
                    "incomplete grid: {} ok, {} failed, {} skipped{first}",
                    self.ok_count(),
                    self.failed_count(),
                    self.skipped_count()
                ),
            ));
        }
        let cells = self
            .cells
            .into_iter()
            .map(|(k, c)| match c.status {
                CellStatus::Ok(stats) => (k, stats),
                _ => unreachable!("is_complete checked"),
            })
            .collect();
        Ok(Sweep {
            config: self.config,
            benchmarks: self.workloads,
            designs: self.designs,
            cells,
        })
    }

    /// Deterministic per-cell status report (identical bytes for an
    /// interrupted-then-resumed run and an uninterrupted one).
    pub fn render_report(&self) -> String {
        use std::fmt::Write as _;
        let wname = self
            .workloads
            .iter()
            .map(|w| w.len())
            .max()
            .unwrap_or(8)
            .max("workload".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "resilient sweep: budget={} seed={} halved={} scheme={}",
            self.config.budget,
            self.config.seed,
            self.config.halved_miss_penalty,
            self.config.scheme
        );
        let _ = writeln!(
            out,
            "{:wname$}  {:6}  {:7}  {:8}  detail",
            "workload", "design", "status", "attempts"
        );
        for c in self.outcomes() {
            let _ = writeln!(
                out,
                "{:wname$}  {:6}  {:7}  {:8}  {}",
                c.workload,
                c.design,
                c.status.keyword(),
                c.attempts,
                c.status.detail()
            );
        }
        let _ = writeln!(
            out,
            "summary: ok={} failed={} skipped={}",
            self.ok_count(),
            self.failed_count(),
            self.skipped_count()
        );
        out
    }

    /// The whole result grid as a JSON value (deterministic bytes).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let cells = self
            .outcomes()
            .into_iter()
            .map(|c| {
                let mut pairs = vec![
                    ("workload", Json::from(c.workload.clone())),
                    ("design", Json::from(c.design)),
                    ("status", Json::from(c.status.keyword())),
                    ("attempts", Json::from(c.attempts as u64)),
                ];
                match &c.status {
                    CellStatus::Ok(s) => pairs.push(("stats", crate::checkpoint::stats_to_json(s))),
                    CellStatus::Failed(e) => {
                        pairs.push(("error", Json::from(e.to_string())));
                        pairs.push(("class", Json::from(e.class())));
                    }
                    CellStatus::Skipped(r) => pairs.push(("reason", Json::from(r.clone()))),
                }
                Json::obj(pairs)
            })
            .collect();
        Json::obj([
            (
                "config",
                Json::obj([
                    ("budget", Json::from(self.config.budget as u64)),
                    ("seed", Json::from(self.config.seed)),
                    ("halved", Json::Bool(self.config.halved_miss_penalty)),
                    ("scheme", Json::from(self.config.scheme.clone())),
                    (
                        "designs",
                        Json::Arr(self.designs.iter().map(|d| Json::from(d.name())).collect()),
                    ),
                    (
                        "workloads",
                        Json::Arr(
                            self.workloads
                                .iter()
                                .map(|w| Json::from(w.clone()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("cells", Json::Arr(cells)),
            (
                "summary",
                Json::obj([
                    ("ok", Json::from(self.ok_count() as u64)),
                    ("failed", Json::from(self.failed_count() as u64)),
                    ("skipped", Json::from(self.skipped_count() as u64)),
                ]),
            ),
        ])
    }
}

/// Runs a sweep with per-cell crash isolation, a watchdog, and resume
/// from a result store. Unlike [`run_sweep`], a cell that panics, wedges,
/// or fails to resolve yields a `failed`/`skipped` outcome while its
/// siblings complete normally.
pub fn run_sweep_resilient(
    config: &SweepConfig,
    res: &ResilienceConfig,
) -> SimResult<ResilientSweep> {
    let halved = config.halved_miss_penalty;
    let scheme = config.scheme_kind()?;
    // Per-cell guard rails are the job layer's: a sweep cell and a served
    // job run through the same `run_guarded_source` core.
    let ctl = crate::job::JobCtl {
        watchdog_limit: res.watchdog_limit,
        ..Default::default()
    };
    run_configured(config, res, |workload, source, design| {
        crate::job::run_guarded_source(
            &format!("{workload}/{}", design.name()),
            source,
            design,
            scheme,
            halved,
            config.budget,
            &ctl,
        )
    })
}

/// Resolves every configured workload — keyed by its full name, or by the
/// name as given when it does not resolve (its cells are then skipped) —
/// and runs each resolved cell through [`run_resilient_with`] as
/// `run_cell(workload, source, design)`. A workload has one lazy source
/// that its cells share read-only: a benchmark generates (and caches) its
/// trace on first stream, a synthetic regenerates per stream.
fn run_configured<F>(
    config: &SweepConfig,
    res: &ResilienceConfig,
    run_cell: F,
) -> SimResult<ResilientSweep>
where
    F: Fn(&str, &dyn TraceSource, DesignKind) -> SimResult<RunStats> + Sync,
{
    let resolved: Vec<(String, SimResult<Workload>)> = config
        .workload_names()
        .iter()
        .map(|n| match Workload::by_name(n) {
            Ok(w) => (w.full_name(), Ok(w)),
            Err(e) => (n.clone(), Err(e)),
        })
        .collect();
    let sources: Vec<Option<Box<dyn TraceSource + Send>>> = resolved
        .iter()
        .map(|(_, r)| {
            r.as_ref()
                .ok()
                .map(|w| w.source(config.budget, config.seed))
        })
        .collect();
    run_resilient_with(config, res, &resolved, |wi, design| {
        let source = sources[wi]
            .as_ref()
            .expect("runner only called when resolved");
        run_cell(&resolved[wi].0, source.as_ref(), design)
    })
}

/// The job a sweep cell computes, and so its key in the result store: a
/// cell and a `ccp-served` job with the same spec share one entry.
fn cell_spec(config: &SweepConfig, workload: &str, design: DesignKind) -> JobSpec {
    JobSpec {
        scheme: config.scheme.clone(),
        budget: config.budget,
        seed: config.seed,
        halved: config.halved_miss_penalty,
        ..JobSpec::new(workload, design.name())
    }
}

/// The resilient-execution core, generic over the cell runner so tests can
/// inject panicking or failing cells. `runner(workload_index, design)` is
/// only invoked for workloads whose resolution succeeded.
pub(crate) fn run_resilient_with<F>(
    config: &SweepConfig,
    res: &ResilienceConfig,
    resolved: &[(String, SimResult<Workload>)],
    runner: F,
) -> SimResult<ResilientSweep>
where
    F: Fn(usize, DesignKind) -> SimResult<RunStats> + Sync,
{
    let designs = config.design_kinds()?;
    let workload_names: Vec<String> = resolved.iter().map(|(n, _)| n.clone()).collect();

    // Store: restore every cell whose entry verifies; the rest run.
    let store = res.store.as_ref().map(DiskTier::open).transpose()?;
    let mut cells: BTreeMap<(String, &'static str), CellOutcome> = BTreeMap::new();
    let mut pending: Vec<(usize, DesignKind)> = Vec::new();
    for (wi, (name, r)) in resolved.iter().enumerate() {
        for &d in &designs {
            let (status, attempts) = match r {
                Err(e) => (CellStatus::Skipped(format!("workload unresolved: {e}")), 0),
                Ok(_) => match store.as_ref().and_then(|store| {
                    let spec = cell_spec(config, name, d);
                    store.get_stats(spec.cache_key(), &spec.canonical())
                }) {
                    Some(stats) => (CellStatus::Ok(stats), 1),
                    None => {
                        pending.push((wi, d));
                        continue;
                    }
                },
            };
            cells.insert(
                (name.clone(), d.name()),
                CellOutcome {
                    workload: name.clone(),
                    design: d.name(),
                    status,
                    attempts,
                },
            );
        }
    }

    // Kill emulation / time boxing: everything past the cap is skipped.
    let cut = res
        .max_cells
        .map(|m| m.min(pending.len()))
        .unwrap_or(pending.len());
    for &(wi, d) in &pending[cut..] {
        let name = &resolved[wi].0;
        cells.insert(
            (name.clone(), d.name()),
            CellOutcome {
                workload: name.clone(),
                design: d.name(),
                status: CellStatus::Skipped(format!(
                    "cell budget exhausted (--max-cells {})",
                    res.max_cells.unwrap_or(0)
                )),
                attempts: 0,
            },
        );
    }
    let pending = &pending[..cut];

    let ran: Vec<CellOutcome> = parallel_map(pending, config.threads, |&(wi, d)| {
        let name = resolved[wi].0.clone();
        let cell = format!("{name}/{}", d.name());
        let status = match std::panic::catch_unwind(AssertUnwindSafe(|| runner(wi, d))) {
            Ok(Ok(stats)) => CellStatus::Ok(stats),
            Ok(Err(e)) => CellStatus::Failed(e),
            Err(payload) => CellStatus::Failed(SimError::from_panic(&cell, payload.as_ref())),
        };
        if let (Some(store), CellStatus::Ok(stats)) = (&store, &status) {
            // A failed store write must not fail the cell: the entry is an
            // optimization for resume, not part of the result.
            let spec = cell_spec(config, &name, d);
            let _ = store.put_stats(spec.cache_key(), &spec.canonical(), stats);
        }
        CellOutcome {
            workload: name,
            design: d.name(),
            status,
            attempts: 1,
        }
    });
    for c in ran {
        cells.insert((c.workload.clone(), c.design), c);
    }

    Ok(ResilientSweep {
        config: config.clone(),
        workloads: workload_names,
        designs,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        let mut c = SweepConfig::new(2_000, 7);
        c.threads = 2;
        c
    }

    fn sweep_of(workloads: &[&str], config: &SweepConfig) -> Sweep {
        let mut config = config.clone();
        config.workloads = workloads.iter().map(|w| w.to_string()).collect();
        run_sweep(&config).expect("sweep")
    }

    #[test]
    fn sweep_produces_every_cell() {
        let s = sweep_of(&["health", "130.li"], &tiny_config());
        assert_eq!(s.benchmarks.len(), 2);
        for b in &s.benchmarks {
            for d in DesignKind::ALL {
                let cell = s.cell(b, d);
                assert_eq!(cell.instructions, 2_000.max(cell.instructions));
                assert!(cell.cycles > 0);
            }
        }
    }

    #[test]
    fn normalized_bc_is_unity() {
        let s = sweep_of(&["treeadd"], &tiny_config());
        for (_, r) in s.normalized(DesignKind::Bc, |st| st.cycles as f64) {
            assert!((r - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bcc_matches_bc_timing_in_sweep() {
        let s = sweep_of(&["mst"], &tiny_config());
        let b = &s.benchmarks[0];
        assert_eq!(
            s.cell(b, DesignKind::Bc).cycles,
            s.cell(b, DesignKind::Bcc).cycles,
            "BCC only changes the storage/bus format (paper §4.1)"
        );
    }

    #[test]
    fn halved_penalty_is_faster() {
        let mut cfg = tiny_config();
        cfg.budget = 10_000;
        let normal = sweep_of(&["mcf"], &cfg);
        cfg.halved_miss_penalty = true;
        let halved = sweep_of(&["mcf"], &cfg);
        let b = &normal.benchmarks[0];
        assert!(halved.cell(b, DesignKind::Bc).cycles < normal.cell(b, DesignKind::Bc).cycles);
    }

    #[test]
    fn workload_by_name_resolves_benchmarks_and_specs() {
        assert!(matches!(
            Workload::by_name("health").unwrap(),
            Workload::Bench(_)
        ));
        let w = Workload::by_name("workgen:addr=zipf,small=0.6").unwrap();
        assert!(matches!(w, Workload::Synthetic(_)));
        assert!(w.full_name().starts_with("workgen:addr=zipf"));
        assert!(Workload::by_name("nonesuch").is_err());
        assert!(Workload::by_name("workgen:addr=bogus").is_err());
    }

    #[test]
    fn workload_lists_keep_multi_key_specs_whole() {
        assert_eq!(
            Workload::parse_list("health,workgen:addr=chase,nodes=512,mst"),
            ["health", "workgen:addr=chase,nodes=512", "mst"]
        );
        assert_eq!(
            Workload::parse_list(" workgen:addr=zipf, small=0.6 ,workgen:addr=seq,,treeadd "),
            ["workgen:addr=zipf,small=0.6", "workgen:addr=seq", "treeadd"]
        );
        // A key with no spec before it stays a (non-resolving) name.
        assert_eq!(Workload::parse_list("nodes=512,mst"), ["nodes=512", "mst"]);
        for name in Workload::parse_list("health,workgen:addr=chase,nodes=512,mst") {
            Workload::by_name(&name).expect("every parsed name resolves");
        }
        let chase = Workload::by_name("workgen:addr=chase,nodes=512").unwrap();
        assert!(
            chase.full_name().contains("nodes=512"),
            "{}",
            chase.full_name()
        );
    }

    #[test]
    fn mixed_sweep_covers_synthetic_and_bench_cells() {
        let workloads = ["treeadd", "workgen:addr=uniform,small=0.5,footprint=4096"];
        let s = sweep_of(&workloads, &tiny_config());
        assert_eq!(s.benchmarks.len(), 2);
        for b in &s.benchmarks {
            for d in DesignKind::ALL {
                assert!(s.cell(b, d).cycles > 0, "{b}/{}", d.name());
            }
        }
        // Synthetic cells are deterministic: a rerun reproduces cycles.
        let s2 = sweep_of(&workloads, &tiny_config());
        for b in &s.benchmarks {
            assert_eq!(
                s.cell(b, DesignKind::Cpp).cycles,
                s2.cell(b, DesignKind::Cpp).cycles
            );
        }
    }

    #[test]
    fn config_workload_list_accepts_specs() {
        let mut c = tiny_config();
        assert_eq!(c.workload_list().unwrap().len(), 14);
        c.workloads = vec!["mst".into(), "workgen:addr=seq".into()];
        let l = c.workload_list().unwrap();
        assert_eq!(l.len(), 2);
        c.workloads = vec!["bogus".into()];
        assert!(c.workload_list().is_err());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_deterministic_across_thread_counts() {
        let mut c1 = tiny_config();
        c1.threads = 1;
        let mut c4 = tiny_config();
        c4.threads = 4;
        let s1 = sweep_of(&["perimeter"], &c1);
        let s4 = sweep_of(&["perimeter"], &c4);
        let b = &s1.benchmarks[0];
        for d in DesignKind::ALL {
            assert_eq!(s1.cell(b, d).cycles, s4.cell(b, d).cycles);
        }
    }

    // ---- resilient execution ------------------------------------------

    fn fake_stats(cycles: u64) -> ccp_pipeline::RunStats {
        ccp_pipeline::RunStats {
            cycles,
            instructions: 100,
            loads: 10,
            stores: 5,
            branch_mispredicts: 1,
            branches: 8,
            miss_cycles: 2,
            ready_len_sum: 3,
            ..Default::default()
        }
    }

    fn two_workloads() -> Vec<(String, SimResult<Workload>)> {
        vec![
            ("wl-a".to_string(), Workload::by_name("health")),
            ("wl-b".to_string(), Workload::by_name("mst")),
        ]
    }

    fn resilient_config() -> SweepConfig {
        let mut c = tiny_config();
        c.designs = vec!["BC".into(), "CPP".into()];
        c
    }

    #[test]
    fn panicking_cell_fails_without_poisoning_siblings() {
        let config = resilient_config();
        let res = ResilienceConfig::default();
        let s = run_resilient_with(&config, &res, &two_workloads(), |wi, d| {
            if wi == 0 && d == DesignKind::Cpp {
                panic!("synthetic cell crash");
            }
            Ok(fake_stats(1_000 + wi as u64))
        })
        .expect("resilient sweep");
        assert_eq!(s.failed_count(), 1);
        assert_eq!(s.ok_count(), 3);
        for o in s.outcomes() {
            if o.workload == "wl-a" && o.design == "CPP" {
                match &o.status {
                    CellStatus::Failed(e) => {
                        assert_eq!(e.class(), "panic");
                        let msg = e.to_string();
                        assert!(msg.contains("synthetic cell crash"), "{msg}");
                    }
                    other => panic!("expected Failed, got {other:?}"),
                }
            } else {
                assert!(
                    matches!(o.status, CellStatus::Ok(_)),
                    "{}/{}",
                    o.workload,
                    o.design
                );
            }
        }
        assert!(!s.is_complete());
        let msg = s.into_sweep().expect_err("incomplete grid").to_string();
        assert!(msg.contains("wl-a/CPP"), "{msg}");
        assert!(msg.contains("synthetic cell crash"), "{msg}");
    }

    #[test]
    fn unresolved_workload_cells_are_skipped_not_fatal() {
        let config = resilient_config();
        let res = ResilienceConfig::default();
        let resolved = vec![
            ("wl-a".to_string(), Workload::by_name("health")),
            (
                "bogus".to_string(),
                Err(SimError::unknown("benchmark", "bogus")),
            ),
        ];
        let s = run_resilient_with(&config, &res, &resolved, |_, _| Ok(fake_stats(1)))
            .expect("resilient sweep");
        assert_eq!(s.ok_count(), 2);
        assert_eq!(s.skipped_count(), 2);
        for o in s.outcomes().iter().filter(|o| o.workload == "bogus") {
            match &o.status {
                CellStatus::Skipped(reason) => {
                    assert!(reason.contains("unresolved"), "{reason}")
                }
                other => panic!("expected Skipped, got {other:?}"),
            }
        }
    }

    #[test]
    fn max_cells_marks_remainder_skipped() {
        let config = resilient_config();
        let res = ResilienceConfig {
            max_cells: Some(1),
            ..Default::default()
        };
        let s = run_resilient_with(&config, &res, &two_workloads(), |_, _| Ok(fake_stats(1)))
            .expect("resilient sweep");
        assert_eq!(s.ok_count(), 1);
        assert_eq!(s.skipped_count(), 3);
        let skipped: Vec<_> = s
            .outcomes()
            .into_iter()
            .filter(|o| matches!(o.status, CellStatus::Skipped(_)))
            .collect();
        for o in &skipped {
            match &o.status {
                CellStatus::Skipped(r) => assert!(r.contains("--max-cells 1"), "{r}"),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn non_transient_errors_are_not_retried() {
        let config = resilient_config();
        let res = ResilienceConfig::default();
        let resolved = vec![("wl-a".to_string(), Workload::by_name("health"))];
        let s = run_resilient_with(&config, &res, &resolved, |_, _| {
            Err(SimError::invariant("cell", "always broken"))
        })
        .expect("resilient sweep");
        assert_eq!(s.failed_count(), 2);
        for o in s.outcomes() {
            assert_eq!(o.attempts, 1, "a failed cell ran once");
        }
    }

    #[test]
    fn resilient_report_and_json_are_deterministic() {
        let config = resilient_config();
        let res = ResilienceConfig::default();
        let runner = |wi: usize, d: DesignKind| {
            if d == DesignKind::Cpp {
                Err(SimError::pipeline(format!("wl {wi} wedged")))
            } else {
                Ok(fake_stats(50 + wi as u64))
            }
        };
        let s1 = run_resilient_with(&config, &res, &two_workloads(), runner).expect("sweep");
        let s2 = run_resilient_with(&config, &res, &two_workloads(), runner).expect("sweep");
        assert_eq!(s1.render_report(), s2.render_report());
        assert_eq!(s1.to_json().to_string(), s2.to_json().to_string());
        let report = s1.render_report();
        assert!(report.contains("failed"), "{report}");
        assert!(report.contains("ok=2 failed=2 skipped=0"), "{report}");
    }
}
