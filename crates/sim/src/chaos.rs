//! The fault-injection ("chaos") harness behind `repro chaos`.
//!
//! For a given workload the harness replays its memory operations through
//! a fresh CPP hierarchy, then makes a two-sided detection argument:
//!
//! 1. **No false positives** — after a clean run, the exhaustive
//!    [`InvariantChecker`] must report nothing.
//! 2. **No false negatives** — for each [`FaultKind`], a deterministic
//!    seeded corruption of the *same* post-run state must make the checker
//!    report at least one violation.
//!
//! The per-class [`FaultResult`]s record which invariant families caught
//! each corruption, so a regression that weakens one check surfaces as a
//! changed detection table, not a silent gap.

use crate::fastsim::run_functional_source;
use crate::sweep::Workload;
use ccp_cpp::{CppHierarchy, FaultInjector, FaultKind, FaultReport, InvariantChecker, Violation};
use ccp_errors::SimResult;
use std::fmt::Write as _;

/// Detection outcome for one injected fault class.
#[derive(Debug)]
pub struct FaultResult {
    /// What the injector corrupted.
    pub report: FaultReport,
    /// Everything the checker found afterwards (empty = escaped!).
    pub violations: Vec<Violation>,
}

impl FaultResult {
    /// Whether the corruption was detected.
    pub fn detected(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Deterministic, deduplicated list of the invariant families that
    /// fired.
    pub fn detected_classes(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.violations.iter().map(|v| v.class.name()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// Result of one chaos run over one workload.
#[derive(Debug)]
pub struct ChaosReport {
    /// Workload full name.
    pub workload: String,
    /// Violations reported on the *clean* hierarchy (must be empty).
    pub clean_violations: Vec<Violation>,
    /// One entry per [`FaultKind`], in [`FaultKind::ALL`] order.
    pub results: Vec<FaultResult>,
}

impl ChaosReport {
    /// True when the clean run is violation-free and every fault class was
    /// detected.
    pub fn passed(&self) -> bool {
        self.clean_violations.is_empty() && self.results.iter().all(FaultResult::detected)
    }

    /// Human-readable detection table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let clean = if self.clean_violations.is_empty() {
            "clean".to_string()
        } else {
            format!("{} FALSE POSITIVES", self.clean_violations.len())
        };
        let _ = writeln!(out, "{}: baseline {clean}", self.workload);
        for v in &self.clean_violations {
            let _ = writeln!(out, "  !! {v}");
        }
        for r in &self.results {
            let verdict = if r.detected() {
                format!("detected ({})", r.detected_classes().join(", "))
            } else {
                "ESCAPED".to_string()
            };
            let _ = writeln!(out, "  {:8}  {verdict}", r.report.kind.name());
            let _ = writeln!(out, "            injected: {}", r.report.description);
        }
        out
    }
}

/// Replays `workload` through a fresh paper-configured CPP hierarchy,
/// checks it is invariant-clean, then injects every fault class (each into
/// its own copy of the post-run state) and records what the checker caught.
pub fn run_chaos(workload: &Workload, budget: usize, seed: u64) -> SimResult<ChaosReport> {
    let source = workload.source(budget, seed);
    let mut base = CppHierarchy::paper();
    run_functional_source(source.as_ref(), &mut base, 0);
    let clean_violations = InvariantChecker::check(&base);

    let mut results = Vec::new();
    for kind in FaultKind::ALL {
        let mut corrupted = base.clone();
        let mut injector = FaultInjector::new(seed ^ 0x5EED ^ kind.name().len() as u64);
        let report = injector.inject(&mut corrupted, kind)?;
        let violations = InvariantChecker::check(&corrupted);
        results.push(FaultResult { report, violations });
    }

    Ok(ChaosReport {
        workload: workload.full_name(),
        clean_violations,
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_passes_on_a_benchmark() {
        let w = Workload::by_name("health").unwrap();
        let r = run_chaos(&w, 4_000, 1).unwrap();
        assert!(r.clean_violations.is_empty(), "{:?}", r.clean_violations);
        for fr in &r.results {
            assert!(fr.detected(), "{:?} escaped", fr.report.kind);
        }
        assert!(r.passed());
        let table = r.render();
        assert!(table.contains("baseline clean"));
        assert!(!table.contains("ESCAPED"));
    }

    #[test]
    fn chaos_passes_on_a_synthetic_workload() {
        let w = Workload::by_name("workgen:addr=uniform,small=0.7,footprint=8192").unwrap();
        let r = run_chaos(&w, 4_000, 9).unwrap();
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn pairing_fault_falls_back_to_l2_on_a_pointer_chase() {
        // The README's example: the chase leaves no L1 line whose pair is
        // primary-resident, so the pairing fault takes an L2 site, and the
        // checker must still flag it as a pairing violation.
        let w = Workload::by_name("workgen:addr=chase,small=0.4").unwrap();
        let r = run_chaos(&w, 50_000, 9).unwrap();
        assert!(r.passed(), "{}", r.render());
        let pairing = r
            .results
            .iter()
            .find(|fr| fr.report.kind == FaultKind::Pairing)
            .expect("every class is injected");
        assert_eq!(pairing.report.level, "L2");
        assert_eq!(pairing.detected_classes(), ["pairing"]);
    }

    #[test]
    fn chaos_is_deterministic() {
        let w = Workload::by_name("mst").unwrap();
        let a = run_chaos(&w, 3_000, 5).unwrap();
        let b = run_chaos(&w, 3_000, 5).unwrap();
        assert_eq!(a.render(), b.render());
    }
}
