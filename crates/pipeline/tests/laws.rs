//! Latency laws of the pipeline: exact cycle counts for small programs
//! whose timing follows from the cache latencies, the MSHR count and the
//! mispredict penalty alone.
//!
//! Most programs are runs of loads on the paper's processor. A dependent
//! chain pays every load's full latency in turn; independent loads overlap
//! up to the number of MSHRs. The 13 cycles a chain takes on top of its
//! loads' latencies do not grow with the number of loads, which the 100-
//! and 200-load pairs pin. Chains of load pairs price one hit source
//! against another: a CPP affiliated hit, a BCP prefetch-buffer hit, an
//! L1 hit and an L2 hit. A last program prices one mispredicted branch.

use ccp_cache::{BcpHierarchy, CacheSim, DesignKind, LatencyConfig, TwoLevelCache};
use ccp_cpp::CppHierarchy;
use ccp_pipeline::{run_source, PipelineConfig, RunStats};
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

/// `n` dependent pairs of loads, a page apart: each pair loads a fresh
/// line from memory, then the word `offset` bytes past it.
fn pairs(n: u32, offset: u32) -> ccp_trace::Trace {
    let mut ctx = ProgramCtx::new("laws");
    let mut last = H::NONE;
    for i in 0..n {
        let addr = BASE + i * PAGE;
        last = ctx.load(addr, last).0;
        last = ctx.load(addr + offset, last).0;
    }
    ctx.finish()
}

/// Runs `trace` on `cache` with latencies `lat` and processor `cfg`.
fn run(
    trace: &ccp_trace::Trace,
    cache: &mut dyn CacheSim,
    lat: LatencyConfig,
    cfg: PipelineConfig,
) -> RunStats {
    cache.set_latencies(lat);
    let stats = run_source(trace, cache, &cfg);
    assert_eq!(stats.instructions, trace.len() as u64);
    stats
}

/// Cycles the paper's processor takes for `trace` under BC with latencies
/// `lat` and `mshrs` miss registers.
fn cycles(trace: &ccp_trace::Trace, lat: LatencyConfig, mshrs: usize) -> u64 {
    let cfg = PipelineConfig {
        mshrs,
        ..PipelineConfig::paper()
    };
    run(trace, &mut TwoLevelCache::paper(DesignKind::Bc), lat, cfg).cycles
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

#[test]
fn cpp_affiliated_hit_costs_affiliated_extra_over_an_l1_hit() {
    // Each pair's second load reads either the next word of the fetched
    // line (an L1 hit) or the same word of its affiliated line, which CPP
    // prefetched with it (memory is zero, so every word compresses).
    let cpp = |offset, lat| {
        let s = run(
            &pairs(100, offset),
            &mut CppHierarchy::paper(),
            lat,
            PipelineConfig::paper(),
        );
        (s.cycles, s.load_sources.l1, s.load_sources.l1_affiliated)
    };
    assert_eq!(cpp(4, paper()), (10_113, 100, 0));
    assert_eq!(cpp(L1_LINE, paper()), (10_213, 0, 100));
    assert_eq!(cpp(4, halved()), (5_113, 100, 0));
    assert_eq!(cpp(L1_LINE, halved()), (5_213, 0, 100));
    // The difference scales with `affiliated_extra`: 3 cycles a hit.
    let slow = LatencyConfig {
        affiliated_extra: 3,
        ..paper()
    };
    assert_eq!(cpp(L1_LINE, slow), (10_413, 0, 100));
}

#[test]
fn bcp_buffer_hit_costs_an_l1_hit() {
    // The second load of a pair reads the next L1 line: BCP prefetched it
    // into the L1 buffer on the first load's miss; BC finds it in L2.
    let on = |cache: &mut dyn CacheSim, offset, lat| {
        let s = run(&pairs(100, offset), cache, lat, PipelineConfig::paper());
        (s.cycles, s.load_sources.l1_prefetch, s.load_sources.l2)
    };
    let bc = || TwoLevelCache::paper(DesignKind::Bc);
    for (lat, l1_hits, l2_hits) in [(paper(), 10_113, 11_013), (halved(), 5_113, 5_513)] {
        assert_eq!(on(&mut bc(), 4, lat).0, l1_hits);
        assert_eq!(
            on(&mut BcpHierarchy::paper(), L1_LINE, lat),
            (l1_hits, 100, 0)
        );
        assert_eq!(on(&mut bc(), L1_LINE, lat), (l2_hits, 0, 100));
        // Each buffer hit saves exactly an L2 hit's extra latency.
        assert_eq!(l2_hits - l1_hits, 100 * u64::from(lat.l2_hit - lat.l1_hit));
    }
}

/// A block of straight-line code at one I-cache block: a producer (a load
/// from memory when `fed`, else an ALU op), a consumer of it that is an
/// ALU op (`None`) or a branch resolving `Some(taken)`, then 32
/// independent ALU ops. Every op sits at the same PC, so the block takes
/// one I-cache miss and the branch is the predictor's first, predicted
/// taken.
fn branch_block(branch: Option<bool>, fed: bool) -> ccp_trace::Trace {
    let mut ctx = ProgramCtx::new("laws");
    let head = ctx.label();
    ctx.at(head);
    let operand = if fed {
        ctx.load(BASE, H::NONE).0
    } else {
        ctx.alu(H::NONE, H::NONE)
    };
    ctx.at(head);
    match branch {
        None => ctx.alu(operand, H::NONE),
        Some(taken) => ctx.branch(taken, operand),
    };
    for _ in 0..32 {
        ctx.at(head);
        ctx.alu(H::NONE, H::NONE);
    }
    ctx.finish()
}

#[test]
fn one_mispredicted_branch_costs_the_penalty_plus_two_cycles() {
    // Fetch stops at the mispredicted branch and resumes `1 + penalty`
    // cycles after it issues. Against the same block with the branch
    // predicted (or an ALU op in its place), that costs `penalty + 2`
    // cycles, whatever the memory latency and whether the branch waits
    // on a miss.
    for (lat, fed, predicted) in [
        (paper(), false, 23),
        (halved(), false, 23),
        (paper(), true, 122),
        (halved(), true, 72),
    ] {
        for penalty in [0, 3, 6] {
            let cfg = PipelineConfig {
                mispredict_penalty: penalty,
                ..PipelineConfig::paper()
            };
            let bc = || TwoLevelCache::paper(DesignKind::Bc);
            let at = |branch| run(&branch_block(branch, fed), &mut bc(), lat, cfg);
            assert_eq!(at(None).cycles, predicted);
            let taken = at(Some(true));
            assert_eq!((taken.cycles, taken.branch_mispredicts), (predicted, 0));
            let missed = at(Some(false));
            assert_eq!(
                (missed.cycles, missed.branch_mispredicts),
                (predicted + u64::from(penalty) + 2, 1)
            );
        }
    }
}
