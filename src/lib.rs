#![warn(missing_docs)]

//! # ccp — Compression-enabled Partial Cache Line Prefetching
//!
//! A from-scratch reproduction of *Enabling Partial Cache Line Prefetching
//! Through Data Compression* (Zhang & Gupta, ICPP 2003): a cache design
//! that stores 32-bit words in 16 bits when they are small values or
//! same-chunk pointers, and uses the freed half-word slots to prefetch the
//! compressible words of the neighbouring ("affiliated") cache line — a
//! hardware prefetcher with **no prefetch buffer and no extra memory
//! traffic**.
//!
//! The workspace contains everything the paper's evaluation needs:
//!
//! * [`errors`] — the workspace-wide [`SimError`](errors::SimError) taxonomy,
//! * [`compress`] — the 16-bit value-compression scheme (§2.1, Figure 1–2),
//! * [`mem`] — the functional memory image and bus-traffic meters,
//! * [`cache`] — the cache substrate and the BC / BCC / HAC / BCP
//!   comparison designs (§4.1),
//! * [`cpp`] — the paper's contribution, the CPP hierarchy (§3),
//! * [`pipeline`] — a 4-issue out-of-order timing model (Figure 9),
//! * [`trace`] — fourteen synthetic Olden/SPEC-like workload generators,
//! * [`workgen`] — composable streaming synthetic-workload generation
//!   (address × value × mix parameter spaces),
//! * [`sim`] — the experiment harness regenerating Figures 3 and 9–15,
//! * [`served`] — simulation-as-a-service: the NDJSON-over-TCP job
//!   server with single-flight result caching, and its client/loadgen,
//! * [`store`] — the two-tier content-addressed result store (RAM LRU
//!   over the on-disk tier that `repro sweep --store` shares).
//!
//! ## Quickstart
//!
//! ```
//! use ccp::prelude::*;
//!
//! // Build the paper's CPP hierarchy and run a workload trace through the
//! // out-of-order pipeline (a trace is one kind of `TraceSource`).
//! let bench = ccp::trace::benchmark_by_name("olden.health").unwrap();
//! let trace = bench.trace(20_000, 42);
//! let mut cpp = CppHierarchy::paper();
//! let stats = run_source(&trace, &mut cpp, &PipelineConfig::paper());
//! assert_eq!(stats.instructions, trace.len() as u64);
//! assert!(stats.hierarchy.prefetches_issued > 0, "partial lines prefetched");
//! ```

pub use ccp_cache as cache;
pub use ccp_compress as compress;
pub use ccp_cpp as cpp;
pub use ccp_errors as errors;
pub use ccp_mem as mem;
pub use ccp_pipeline as pipeline;
pub use ccp_schemes as schemes;
pub use ccp_served as served;
pub use ccp_sim as sim;
pub use ccp_store as store;
pub use ccp_trace as trace;
pub use ccp_workgen as workgen;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use ccp_cache::{
        AccessResult, BcpHierarchy, CacheSim, DesignKind, HierarchyConfig, HitSource,
        LatencyConfig, StrideHierarchy, TwoLevelCache, VictimHierarchy,
    };
    pub use ccp_compress::{classify, compress, decompress, is_compressible, CompressKind};
    pub use ccp_cpp::CppHierarchy;
    pub use ccp_errors::{SimError, SimResult};
    pub use ccp_mem::MainMemory;
    pub use ccp_pipeline::{run_source, PipelineConfig, RunStats};
    pub use ccp_schemes::SchemeKind;
    pub use ccp_served::{BenchConfig, Client, ServerConfig};
    pub use ccp_sim::{
        build_design, build_design_scheme, run_job, run_sweep, run_sweep_resilient, JobSpec,
        ResilienceConfig, SweepConfig,
    };
    pub use ccp_trace::{all_benchmarks, benchmark_by_name, Trace, TraceSource};
    pub use ccp_workgen::{SynthSource, WorkgenSpec};
}

// The source-rule scanner's cases (DESIGN.md §9); the scanner is test code
// under `tests/source_scan`, shared with the tests there.
#[cfg(test)]
#[path = "../tests/source_scan/lexer_cases.rs"]
mod lexer;
#[cfg(test)]
#[path = "../tests/source_scan/rule_cases.rs"]
mod rules;
#[cfg(test)]
#[path = "../tests/source_scan/mod.rs"]
mod source_scan;

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::source_scan::{in_scope, walk, EXCLUDED};

    /// An exclusion naming a path that no longer exists hides nothing today
    /// but would silently hide whatever later takes its name; moving or
    /// deleting the stand-ins must fail here instead. The walk must reach
    /// the rules' own sources.
    #[test]
    fn every_scoped_path_exists_in_this_workspace() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut rels = Vec::new();
        walk(root, root, &mut rels);
        assert!(
            rels.iter().any(|r| r.starts_with(EXCLUDED)),
            "the rules skip {EXCLUDED}, which holds no sources in this workspace"
        );
        for must in [
            "src/lib.rs",
            "crates/sim/src/lib.rs",
            "tests/source_rules.rs",
            "tests/source_scan/mod.rs",
        ] {
            assert!(rels.iter().any(|r| r == must), "the walk missed {must}");
            assert!(in_scope(must));
        }
    }

    #[test]
    fn facade_reexports_work_together() {
        let mut cpp = CppHierarchy::paper();
        cpp.mem_mut().write(0x1000, 5);
        let r = cpp.read(0x1000);
        assert_eq!(r.source, HitSource::Memory);
        assert_eq!(cpp.mem().read(0x1000), 5);
        assert!(is_compressible(5, 0x1000));
    }

    #[test]
    fn facade_serves_jobs() {
        let server = crate::served::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(&server.addr().to_string()).unwrap();
        let mut spec = JobSpec::new("health", "CPP");
        spec.budget = 1_500;
        let served = client.submit_wait(&spec).unwrap();
        let direct = run_job(&spec).unwrap();
        assert_eq!(
            served.stats.get("cycles").and_then(|v| v.as_u64()),
            Some(direct.cycles)
        );
        server.shutdown();
        server.wait();
    }

    #[test]
    fn facade_exposes_workgen_sources() {
        let spec = WorkgenSpec::parse("workgen:addr=seq,footprint=64").unwrap();
        let source = SynthSource::new(spec, 1, 500);
        assert_eq!(source.stream().count(), 500);
        let mut cpp = CppHierarchy::paper();
        let stats = run_source(&source, &mut cpp, &PipelineConfig::paper());
        assert_eq!(stats.instructions, 500);
    }
}
