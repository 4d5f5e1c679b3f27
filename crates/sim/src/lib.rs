#![warn(missing_docs)]
// No panic outside tests in any crate the served binaries link (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(
    not(test),
    deny(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]

//! Experiment harness: wires the workload suite, the out-of-order pipeline,
//! and the five cache designs together, and regenerates every table and
//! figure of the paper's evaluation (§4).
//!
//! The entry points mirror the paper's figures:
//!
//! | Paper | Function | Output |
//! |-------|----------|--------|
//! | Fig. 3 | [`experiments::figure3`] | value compressibility per benchmark |
//! | Fig. 9 | [`experiments::figure9`] | baseline configuration table |
//! | Fig. 10 | [`experiments::figure10`] | memory traffic normalized to BC |
//! | Fig. 11 | [`experiments::figure11`] | execution time normalized to BC |
//! | Fig. 12 | [`experiments::figure12`] | L1 misses normalized to BC |
//! | Fig. 13 | [`experiments::figure13`] | L2 misses normalized to BC |
//! | Fig. 14 | [`experiments::figure14`] | miss-importance (Amdahl fraction) |
//! | Fig. 15 | [`experiments::figure15`] | ready-queue length, CPP vs HAC |
//!
//! All figures that compare designs derive from one [`sweep::Sweep`] (every
//! benchmark × design cell holds a full [`ccp_pipeline::RunStats`]), so the
//! numbers across figures are mutually consistent, exactly as one
//! SimpleScalar campaign produced the paper's plots.

pub mod chaos;
pub mod checkpoint;
pub mod difftest;
pub mod experiments;
pub mod extensions;
pub mod fastsim;
pub mod job;
pub mod json;
pub mod perf;
pub mod pipeline_goldens;
pub mod report;
pub mod schemes_study;
pub mod sweep;

pub use job::{run_job, run_job_ctl, JobCtl, JobSpec};
pub use sweep::{
    run_sweep, run_sweep_resilient, CellOutcome, CellStatus, ResilienceConfig, ResilientSweep,
    Sweep, SweepConfig,
};

use ccp_cache::{BcpHierarchy, CacheSim, DesignKind, HierarchyConfig, TwoLevelCache};
use ccp_cpp::CppHierarchy;
use ccp_schemes::{BdiScheme, FpcScheme, SchemeKind};

/// Instantiates the hierarchy for any of the paper's five designs in its
/// §4.1 configuration, under the paper's compression scheme.
pub fn build_design(kind: DesignKind) -> Box<dyn CacheSim> {
    build_design_scheme(HierarchyConfig::paper(kind), SchemeKind::Cpp)
}

/// Instantiates a hierarchy from a configuration (the paper's §4.1 one or
/// an ablation of it) and a compression scheme.
///
/// The scheme is resolved to a concrete type *here*, once, at construction:
/// each arm boxes a fully monomorphized hierarchy, so the replay hot path
/// still carries no scheme dispatch (`dyn CompressionScheme` does not
/// compile). Designs without a compressed
/// level (BC/BCC/HAC/BCP) ignore the scheme axis.
pub fn build_design_scheme(cfg: HierarchyConfig, scheme: SchemeKind) -> Box<dyn CacheSim> {
    match cfg.design {
        DesignKind::Bc | DesignKind::Bcc | DesignKind::Hac => Box::new(TwoLevelCache::new(cfg)),
        DesignKind::Bcp => Box::new(BcpHierarchy::new(cfg)),
        DesignKind::Cpp => match scheme {
            SchemeKind::Cpp => Box::new(CppHierarchy::new(cfg)),
            SchemeKind::Bdi => Box::new(CppHierarchy::<BdiScheme>::with_scheme(cfg)),
            SchemeKind::Fpc => Box::new(CppHierarchy::<FpcScheme>::with_scheme(cfg)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_all_five_designs() {
        for kind in DesignKind::ALL {
            let d = build_design(kind);
            assert_eq!(d.name(), kind.name());
        }
    }

    #[test]
    fn factory_respects_custom_config() {
        let mut cfg = HierarchyConfig::paper(DesignKind::Cpp);
        cfg.compress_writebacks = true;
        let d = build_design_scheme(cfg, SchemeKind::Cpp);
        assert_eq!(d.name(), "CPP");
    }
}
