//! Latency laws of the pipeline: exact cycle counts for load programs
//! whose timing follows from the cache latencies and the MSHR count alone.
//!
//! Each program is a run of loads under the baseline cache (BC) and the
//! paper's processor. A dependent chain pays every load's full latency
//! in turn; independent loads overlap up to the number of MSHRs. The 13
//! cycles a chain takes on top of its loads' latencies do not grow with
//! the number of loads, which the 100- and 200-load pairs pin.

use ccp_cache::{CacheSim, DesignKind, LatencyConfig, TwoLevelCache};
use ccp_pipeline::{run_source, PipelineConfig};
use ccp_trace::{ProgramCtx, H};

/// Byte address the load programs start at.
const BASE: u32 = 0x10_0000;

/// Stride that gives every load its own L1 and L2 line (a memory access).
const PAGE: u32 = 4096;

/// Stride of one L1 line: each L2 line serves two loads, the first from
/// memory and the second from L2.
const L1_LINE: u32 = 64;

/// `n` loads `stride` bytes apart; each load's address depends on the one
/// before when `chained`, on nothing otherwise.
fn loads(n: u32, stride: u32, chained: bool) -> ccp_trace::Trace {
    let mut ctx = ProgramCtx::new("laws");
    let mut last = H::NONE;
    for i in 0..n {
        let dep = if chained { last } else { H::NONE };
        last = ctx.load(BASE + i * stride, dep).0;
    }
    ctx.finish()
}

/// Cycles the paper's processor takes for `trace` under BC with latencies
/// `lat` and `mshrs` miss registers.
fn cycles(trace: &ccp_trace::Trace, lat: LatencyConfig, mshrs: usize) -> u64 {
    let mut cache = TwoLevelCache::paper(DesignKind::Bc);
    cache.set_latencies(lat);
    let cfg = PipelineConfig {
        mshrs,
        ..PipelineConfig::paper()
    };
    let stats = run_source(trace, &mut cache, &cfg);
    assert_eq!(stats.instructions, trace.len() as u64);
    stats.cycles
}

fn paper() -> LatencyConfig {
    LatencyConfig::paper()
}

fn halved() -> LatencyConfig {
    LatencyConfig::paper().halved_miss_penalty()
}

#[test]
fn dependent_chain_pays_every_memory_access() {
    // 100 cycles per load at paper latencies, 50 with halved miss penalties.
    assert_eq!(cycles(&loads(100, PAGE, true), paper(), 8), 10_013);
    assert_eq!(cycles(&loads(200, PAGE, true), paper(), 8), 20_013);
    assert_eq!(cycles(&loads(100, PAGE, true), halved(), 8), 5_013);
    assert_eq!(cycles(&loads(200, PAGE, true), halved(), 8), 10_013);
}

#[test]
fn dependent_chain_alternates_memory_and_l2() {
    // Pairs of loads share an L2 line: memory (100) then L2 (10), 55 cycles
    // a load; halved, memory (50) then L2 (5).
    assert_eq!(cycles(&loads(100, L1_LINE, true), paper(), 8), 5_513);
    assert_eq!(cycles(&loads(200, L1_LINE, true), paper(), 8), 11_013);
    assert_eq!(cycles(&loads(100, L1_LINE, true), halved(), 8), 2_763);
    assert_eq!(cycles(&loads(200, L1_LINE, true), halved(), 8), 5_513);
}

#[test]
fn independent_misses_overlap_up_to_the_mshrs() {
    let trace = loads(100, PAGE, false);
    assert_eq!(cycles(&trace, paper(), 1), 10_013);
    assert_eq!(cycles(&trace, paper(), 2), 5_013);
    assert_eq!(cycles(&trace, paper(), 4), 2_514);
}

#[test]
fn eight_mshrs_bound_the_marginal_cost_of_a_miss() {
    // Far from the start-up transient, each further independent miss costs
    // one memory latency shared by the eight MSHRs, plus at most 5%.
    let memory = f64::from(paper().memory);
    let at = |n| cycles(&loads(n, PAGE, false), paper(), 8);
    let marginal = (at(400) - at(200)) as f64 / 200.0;
    assert!(
        (memory / 8.0..=1.05 * memory / 8.0).contains(&marginal),
        "marginal cost per load {marginal} outside [{}, {}]",
        memory / 8.0,
        1.05 * memory / 8.0
    );
}
