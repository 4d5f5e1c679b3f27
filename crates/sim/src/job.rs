//! Library-level single-job execution, extracted from the sweep driver.
//!
//! A [`JobSpec`] is one fully-described simulation — workload (benchmark
//! name or `workgen:` spec), design, instruction budget, seed, latency
//! variant — and [`run_job`] runs it with the same guard rails a sweep
//! cell gets: `catch_unwind` crash isolation, a streamed-instruction
//! watchdog, and typed [`SimError`]s. The sweep driver's per-cell body is
//! built from the same [`run_guarded_source`] core, so a job submitted to
//! `ccp-served` and a cell of `repro sweep` are *the same computation*
//! — which is what lets one result store (the `.ccpz` tier of
//! [`crate::checkpoint`], keyed by [`JobSpec::cache_key`]) answer for
//! either.
//!
//! [`JobSpec::cache_key`] gives the content address: a hash over the
//! canonical form of every input that determines the result (workload
//! spec, design, hierarchy/latency variant, budget, seed, fault request).
//! Identical keys ⇒ identical [`RunStats`], because every simulation in
//! this workspace is a pure function of its spec.

use crate::sweep::{run_cell_source_scheme, Workload};
use ccp_cache::DesignKind;
use ccp_cpp::{CppHierarchy, FaultInjector, FaultKind, InvariantChecker};
use ccp_errors::{SimError, SimResult};
use ccp_pipeline::RunStats;
use ccp_schemes::SchemeKind;
use ccp_trace::{Inst, TraceSource};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One simulation job: everything that determines its result.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Benchmark name (`health`, `181.mcf`, …) or a `workgen:` spec.
    pub workload: String,
    /// Design short name (`BC`, `BCC`, `HAC`, `BCP`, `CPP`).
    pub design: String,
    /// Compression scheme short name (`CPP`, `BDI`, `FPC`). Only the CPP
    /// design has a compressed level, so the other designs ignore it — but
    /// it still feeds the cache key, so results computed under different
    /// schemes can never alias.
    pub scheme: String,
    /// Instruction budget.
    pub budget: usize,
    /// Workload generation seed.
    pub seed: u64,
    /// Halve the miss penalties (the Figure 14 latency variant).
    pub halved: bool,
    /// Chaos probe: run the workload functionally on a CPP hierarchy, then
    /// corrupt the post-run state with this PR-2 fault class (`pa`, `vcp`,
    /// `aa`, `bitflip`, `pairing`). The injected corruption trips the
    /// invariant checker, which **panics the job** — deliberately: fault
    /// jobs exist to prove the serving layer survives a poisoned worker
    /// and hands the submitter a typed error instead of dying.
    pub fault: Option<String>,
}

impl JobSpec {
    /// A job with the sweep driver's defaults (budget 60 000, seed 1,
    /// paper latencies, no fault).
    pub fn new(workload: impl Into<String>, design: impl Into<String>) -> JobSpec {
        JobSpec {
            workload: workload.into(),
            design: design.into(),
            scheme: SchemeKind::Cpp.name().to_string(),
            budget: 60_000,
            seed: 1,
            halved: false,
            fault: None,
        }
    }

    /// Resolves the workload and design names (the fallible part of the
    /// spec), without running anything.
    pub fn resolve(&self) -> SimResult<(Workload, DesignKind)> {
        let workload = Workload::by_name(&self.workload)?;
        let design = DesignKind::from_name(&self.design)
            .ok_or_else(|| SimError::unknown("design", &self.design))?;
        self.scheme_kind()?;
        if let Some(f) = &self.fault {
            FaultKind::by_name(f)?;
        }
        Ok((workload, design))
    }

    /// Parses the scheme name.
    pub fn scheme_kind(&self) -> SimResult<SchemeKind> {
        SchemeKind::from_name(&self.scheme).ok_or_else(|| SimError::unknown("scheme", &self.scheme))
    }

    /// The canonical text form the cache key hashes: workload names are
    /// normalized through resolution when possible (so `workgen:addr=zipf`
    /// and its fully-spelled equivalent share a key), and every
    /// result-determining field appears exactly once, in a fixed order.
    pub fn canonical(&self) -> String {
        let workload = Workload::by_name(&self.workload)
            .map(|w| w.full_name())
            .unwrap_or_else(|_| self.workload.trim().to_string());
        let scheme = SchemeKind::from_name(&self.scheme)
            .map(|s| s.name().to_string())
            .unwrap_or_else(|| self.scheme.trim().to_uppercase());
        format!(
            "workload={workload}|design={}|scheme={scheme}|budget={}|seed={}|halved={}|fault={}",
            self.design.trim().to_uppercase(),
            self.budget,
            self.seed,
            self.halved,
            self.fault.as_deref().unwrap_or("-"),
        )
    }

    /// Content address of this job's result: FNV-1a over [`canonical`]
    /// (64-bit; the result cache stores the canonical string alongside, so
    /// an astronomically-unlikely collision is detected, not served).
    ///
    /// [`canonical`]: JobSpec::canonical
    pub fn cache_key(&self) -> u64 {
        crate::checkpoint::fnv1a(self.canonical().as_bytes())
    }

    /// `workload/design` — the context string error reports use.
    pub fn context(&self) -> String {
        format!("{}/{}", self.workload, self.design)
    }
}

/// Execution controls layered on a [`JobSpec`]: cooperative cancellation,
/// progress reporting, and the watchdog budget.
#[derive(Default)]
pub struct JobCtl<'a> {
    /// Checked periodically while streaming; once `true` the job stops and
    /// reports [`SimError::Canceled`].
    pub cancel: Option<&'a AtomicBool>,
    /// Called with `(streamed, total)` every `total / 8` instructions (at
    /// least 1024), and once more with `(total, total)` at the end.
    pub progress: Option<&'a (dyn Fn(u64, u64) + Sync)>,
    /// Streamed-instruction budget before the watchdog trips
    /// (0 = auto: `2 × budget + 1024`).
    pub watchdog_limit: u64,
}

impl JobCtl<'_> {
    /// The effective watchdog limit for `budget`.
    pub fn effective_watchdog(&self, budget: usize) -> u64 {
        if self.watchdog_limit == 0 {
            2 * budget as u64 + 1024
        } else {
            self.watchdog_limit
        }
    }
}

/// A [`TraceSource`] wrapper adding the per-job guard rails: instruction
/// counting (for progress), a hard streamed-instruction limit (watchdog),
/// and cooperative cancellation. The flags are atomics so the wrapper can
/// be shared read-only with the pipeline like any other source.
struct GuardedSource<'a> {
    inner: &'a dyn TraceSource,
    ctl: &'a JobCtl<'a>,
    limit: u64,
    every: u64,
    total: u64,
    streamed: AtomicU64,
    tripped: AtomicBool,
    canceled: AtomicBool,
}

impl<'a> GuardedSource<'a> {
    fn new(inner: &'a dyn TraceSource, ctl: &'a JobCtl<'a>, budget: usize) -> Self {
        let total = inner.len_hint().unwrap_or(budget as u64);
        GuardedSource {
            inner,
            ctl,
            limit: ctl.effective_watchdog(budget),
            every: (total / 8).max(1024),
            total,
            streamed: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            canceled: AtomicBool::new(false),
        }
    }
}

impl TraceSource for GuardedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_mem(&self) -> ccp_mem::MainMemory {
        self.inner.initial_mem()
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Inst> + '_> {
        // Per-stream position; the shared atomics only accumulate for
        // progress/verdict reporting.
        let mut pos = 0u64;
        Box::new(self.inner.stream().take_while(move |_| {
            pos += 1;
            if pos > self.limit {
                self.tripped.store(true, Ordering::Relaxed);
                return false;
            }
            if pos.is_multiple_of(256) {
                if let Some(c) = self.ctl.cancel {
                    if c.load(Ordering::Relaxed) {
                        self.canceled.store(true, Ordering::Relaxed);
                        return false;
                    }
                }
            }
            let n = self.streamed.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(self.every) {
                if let Some(p) = self.ctl.progress {
                    p(n.min(self.total), self.total);
                }
            }
            true
        }))
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint().map(|n| n.min(self.limit))
    }
}

/// Runs one `(source, design)` cell with watchdog/cancel/progress guards —
/// the shared core of [`run_job`] and the resilient sweep's cell runner.
/// `ctx` labels any error (`workload/design`).
pub fn run_guarded_source(
    ctx: &str,
    source: &dyn TraceSource,
    design: DesignKind,
    scheme: SchemeKind,
    halved: bool,
    budget: usize,
    ctl: &JobCtl,
) -> SimResult<RunStats> {
    let guarded = GuardedSource::new(source, ctl, budget);
    let stats = run_cell_source_scheme(&guarded, design, scheme, halved);
    if guarded.canceled.load(Ordering::Relaxed) {
        Err(SimError::canceled(ctx))
    } else if guarded.tripped.load(Ordering::Relaxed) {
        Err(SimError::watchdog(ctx, guarded.limit))
    } else {
        if let Some(p) = ctl.progress {
            p(guarded.total, guarded.total);
        }
        Ok(stats)
    }
}

/// Runs one job with default controls (no cancellation, no progress, auto
/// watchdog). Panics inside the simulation are caught and reported as
/// typed errors — the caller's thread survives a poisoned job.
pub fn run_job(spec: &JobSpec) -> SimResult<RunStats> {
    run_job_ctl(spec, &JobCtl::default())
}

/// [`run_job`] with explicit execution controls.
pub fn run_job_ctl(spec: &JobSpec, ctl: &JobCtl) -> SimResult<RunStats> {
    let (workload, design) = spec.resolve()?;
    let ctx = spec.context();
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_resolved(spec, &workload, design, ctl)
    }))
    .unwrap_or_else(|payload| Err(SimError::from_panic(&ctx, payload.as_ref())))
}

fn run_resolved(
    spec: &JobSpec,
    workload: &Workload,
    design: DesignKind,
    ctl: &JobCtl,
) -> SimResult<RunStats> {
    if let Some(fault) = &spec.fault {
        return run_fault_probe(spec, workload, fault);
    }
    let scheme = spec.scheme_kind()?;
    let source = workload.source(spec.budget, spec.seed);
    run_guarded_source(
        &format!("{}/{}", workload.full_name(), design.name()),
        source.as_ref(),
        design,
        scheme,
        spec.halved,
        spec.budget,
        ctl,
    )
}

/// The chaos path: replay the workload functionally on a CPP hierarchy,
/// corrupt the post-run state with the requested PR-2 fault class, and let
/// the invariant checker blow the job up. Never returns stats — the whole
/// point is to die inside the isolation boundary.
fn run_fault_probe(spec: &JobSpec, workload: &Workload, fault: &str) -> SimResult<RunStats> {
    let kind = FaultKind::by_name(fault)?;
    let source = workload.source(spec.budget, spec.seed);
    let mut h = CppHierarchy::paper();
    crate::fastsim::run_functional_source(source.as_ref(), &mut h, 0);
    let mut injector = FaultInjector::new(spec.seed ^ 0x5EED);
    let report = injector.inject(&mut h, kind)?;
    #[expect(
        clippy::panic,
        reason = "the fault probe exists to die inside run_job_ctl's catch_unwind"
    )]
    if let Err(e) = InvariantChecker::assert_clean(&h) {
        // A worker whose simulator state is corrupted *panics* — this is
        // the failure mode the catch_unwind isolation exists for.
        panic!("poisoned by injected {} fault: {e}", report.kind.name());
    }
    Err(SimError::invariant(
        "fault probe",
        format!("injected {} fault escaped detection", kind.name()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, design: &str) -> JobSpec {
        let mut s = JobSpec::new(workload, design);
        s.budget = 2_000;
        s.seed = 7;
        s
    }

    #[test]
    fn run_job_matches_the_sweep_cell() {
        let spec = quick("health", "CPP");
        let stats = run_job(&spec).expect("job");
        // Same computation as a sweep cell over the same source.
        let w = Workload::by_name("health").unwrap();
        let src = w.source(2_000, 7);
        let cell = run_cell_source_scheme(src.as_ref(), DesignKind::Cpp, SchemeKind::Cpp, false);
        assert_eq!(stats.cycles, cell.cycles);
        assert_eq!(stats.instructions, cell.instructions);
    }

    #[test]
    fn run_job_accepts_workgen_specs() {
        let spec = quick("workgen:addr=uniform,small=0.5,footprint=4096", "BC");
        let a = run_job(&spec).expect("job");
        let b = run_job(&spec).expect("job");
        assert_eq!(a.cycles, b.cycles, "jobs are pure functions of the spec");
    }

    #[test]
    fn bad_names_resolve_to_typed_errors() {
        assert_eq!(
            run_job(&quick("nonesuch", "CPP")).unwrap_err().class(),
            "unknown-name"
        );
        assert_eq!(
            run_job(&quick("health", "XXX")).unwrap_err().class(),
            "unknown-name"
        );
        let mut s = quick("health", "CPP");
        s.fault = Some("bogus".into());
        assert_eq!(run_job(&s).unwrap_err().class(), "unknown-name");
    }

    #[test]
    fn cache_key_separates_every_field_and_normalizes_specs() {
        let base = quick("health", "CPP");
        let mut others = Vec::new();
        for f in [
            |s: &mut JobSpec| s.workload = "mst".into(),
            |s: &mut JobSpec| s.design = "BC".into(),
            |s: &mut JobSpec| s.scheme = "BDI".into(),
            |s: &mut JobSpec| s.budget = 2_001,
            |s: &mut JobSpec| s.seed = 8,
            |s: &mut JobSpec| s.halved = true,
            |s: &mut JobSpec| s.fault = Some("pa".into()),
        ] {
            let mut s = base.clone();
            f(&mut s);
            others.push(s.cache_key());
        }
        others.push(base.cache_key());
        others.sort_unstable();
        others.dedup();
        assert_eq!(others.len(), 8, "every field must feed the key");

        // Equivalent workgen spellings share a key; design and scheme
        // case-fold.
        let a = quick("workgen:addr=zipf", "cpp");
        let mut b = quick(
            &Workload::by_name("workgen:addr=zipf").unwrap().full_name(),
            "CPP",
        );
        b.scheme = "cpp".into();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn scheme_feeds_the_cache_key_for_the_same_workload() {
        // Same workload, same design, different scheme ⇒ distinct content
        // addresses — a BDI result can never be served from a CPP cache
        // entry (or `.ccpz` store object, which shares this key).
        let specs: Vec<JobSpec> = ["CPP", "BDI", "FPC"]
            .iter()
            .map(|sch| {
                let mut s = quick("health", "CPP");
                s.scheme = (*sch).into();
                s
            })
            .collect();
        let mut keys: Vec<u64> = specs.iter().map(JobSpec::cache_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 3, "schemes must not collide in the key space");
        for s in &specs {
            assert!(
                s.canonical().contains(&format!("|scheme={}|", s.scheme)),
                "{}",
                s.canonical()
            );
        }
    }

    #[test]
    fn bogus_scheme_resolves_to_a_typed_error() {
        let mut s = quick("health", "CPP");
        s.scheme = "LZ77".into();
        assert_eq!(run_job(&s).unwrap_err().class(), "unknown-name");
    }

    #[test]
    fn cancellation_yields_a_typed_error() {
        let spec = quick("health", "CPP");
        let cancel = AtomicBool::new(true);
        let ctl = JobCtl {
            cancel: Some(&cancel),
            ..Default::default()
        };
        let e = run_job_ctl(&spec, &ctl).unwrap_err();
        assert_eq!(e.class(), "canceled");
    }

    #[test]
    fn watchdog_trips_as_in_the_sweep() {
        let spec = quick("health", "BC");
        let ctl = JobCtl {
            watchdog_limit: 100,
            ..Default::default()
        };
        let e = run_job_ctl(&spec, &ctl).unwrap_err();
        assert_eq!(e.class(), "watchdog");
    }

    #[test]
    fn progress_reports_monotonic_and_complete() {
        use std::sync::Mutex;
        let spec = quick("health", "BC");
        let seen: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
        let record = |done: u64, total: u64| seen.lock().unwrap().push((done, total));
        let ctl = JobCtl {
            progress: Some(&record),
            ..Default::default()
        };
        run_job_ctl(&spec, &ctl).expect("job");
        let seen = seen.into_inner().unwrap();
        assert!(!seen.is_empty());
        assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0), "{seen:?}");
        let (last, total) = *seen.last().unwrap();
        assert_eq!(last, total, "final report covers the whole stream");
    }

    #[test]
    fn fault_probe_panics_into_a_typed_error() {
        for fault in ["pa", "vcp", "aa", "bitflip", "pairing"] {
            let mut s = quick("health", "CPP");
            s.budget = 1_500;
            s.fault = Some(fault.into());
            let e = run_job(&s).unwrap_err();
            assert_eq!(e.class(), "panic", "{fault}: {e}");
            assert!(e.to_string().contains("poisoned"), "{e}");
        }
    }
}
