//! Property tests for the pipeline: structural bounds that must hold for
//! *any* well-formed trace, plus timing monotonicity in the latency
//! configuration.

use ccp_cache::{CacheSim, DesignKind, TwoLevelCache};
use ccp_pipeline::{run_source, PipelineConfig, PredictorKind};
use ccp_trace::{ProgramCtx, Trace, H};
use proptest::prelude::*;

mod strategies;
use strategies::{config_strategy, dataflow_trace_strategy};

/// A random but well-formed straight-line-with-loops program.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    let step = prop_oneof![
        4 => (0u32..64).prop_map(|x| ("alu", x)),
        1 => (0u32..64).prop_map(|x| ("mul", x)),
        1 => (0u32..64).prop_map(|x| ("fpu", x)),
        3 => (0u32..1024).prop_map(|x| ("load", x)),
        2 => (0u32..1024).prop_map(|x| ("store", x)),
        2 => (0u32..2).prop_map(|x| ("branch", x)),
    ];
    prop::collection::vec(step, 1..400).prop_map(|steps| {
        let mut ctx = ProgramCtx::new("prop");
        let mut last = H::NONE;
        let loop_head = ctx.label();
        for (i, (kind, x)) in steps.iter().enumerate() {
            if i % 32 == 0 {
                ctx.at(loop_head); // re-use PCs so the I-cache sees loops
            }
            last = match *kind {
                "alu" => ctx.alu(last, H::NONE),
                "mul" => ctx.mult(last, H::NONE),
                "fpu" => ctx.falu(last, H::NONE),
                "load" => ctx.load(0x10_0000 + x * 4, last).0,
                "store" => ctx.store(0x10_0000 + x * 4, x ^ 0xAB, last, H::NONE),
                _ => ctx.branch(*x == 0, last),
            };
        }
        ctx.finish()
    })
}

fn bc() -> TwoLevelCache {
    TwoLevelCache::paper(DesignKind::Bc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every instruction commits exactly once; IPC never exceeds the
    /// commit width; the CPI stack covers every cycle.
    #[test]
    fn structural_bounds(trace in dataflow_trace_strategy()) {
        let mut c = bc();
        let s = run_source(&trace, &mut c, &PipelineConfig::paper());
        prop_assert_eq!(s.instructions, trace.len() as u64);
        prop_assert!(s.ipc() <= 4.0 + 1e-9);
        prop_assert!(s.cycles >= (trace.len() as u64).div_ceil(4));
        prop_assert_eq!(s.cpi_stack.total(), s.cycles);
        prop_assert_eq!(
            s.load_sources.total() + s.forwarded_loads,
            s.loads,
            "every load is either forwarded or served by the hierarchy"
        );
        prop_assert_eq!(
            s.load_sources.total(),
            s.hierarchy.l1.reads,
            "every unforwarded load is one L1 read"
        );
        prop_assert_eq!(s.loads + s.stores, trace.mix().loads + trace.mix().stores);
    }

    /// The cycle accounting holds on any machine and program, not only the
    /// paper's: the CPI stack covers every cycle, outstanding-miss cycles
    /// are a subset of all cycles, and the ready queue never outgrows the
    /// window.
    #[test]
    fn accounting_holds_on_any_config(trace in dataflow_trace_strategy(), cfg in config_strategy(), cpp: bool) {
        let mut cache: Box<dyn CacheSim> = if cpp {
            Box::new(ccp_cpp::CppHierarchy::paper())
        } else {
            Box::new(bc())
        };
        let s = run_source(&trace, cache.as_mut(), &cfg);
        prop_assert_eq!(s.instructions, trace.len() as u64);
        prop_assert_eq!(s.cpi_stack.total(), s.cycles);
        prop_assert!(s.miss_cycles <= s.cycles);
        prop_assert!(s.ready_len_sum <= s.miss_cycles * cfg.ruu_size as u64);
    }

    /// The pipeline is a function: identical runs give identical stats.
    #[test]
    fn determinism(trace in dataflow_trace_strategy()) {
        let s1 = run_source(&trace, &mut bc(), &PipelineConfig::paper());
        let s2 = run_source(&trace, &mut bc(), &PipelineConfig::paper());
        prop_assert_eq!(s1.cycles, s2.cycles);
        prop_assert_eq!(s1.hierarchy, s2.hierarchy);
        prop_assert_eq!(s1.cpi_stack, s2.cpi_stack);
    }

    /// Lowering the miss penalty never slows a run down (BC has no
    /// prefetching, so timing is monotone in the latency parameters).
    #[test]
    fn monotone_in_miss_penalty(trace in dataflow_trace_strategy()) {
        let slow = run_source(&trace, &mut bc(), &PipelineConfig::paper());
        let mut fast_cache = bc();
        fast_cache.set_latencies(fast_cache.latencies().halved_miss_penalty());
        let fast = run_source(&trace, &mut fast_cache, &PipelineConfig::paper());
        prop_assert!(
            fast.cycles <= slow.cycles,
            "halved penalties took longer: {} vs {}",
            fast.cycles,
            slow.cycles
        );
    }

    /// A wider machine is never slower than a 1-wide machine on the same
    /// trace and cache design. Chain programs only: with independent ops in
    /// flight the 1-wide machine can let a store miss install a line that a
    /// later load then hits for free, while the 4-wide one issues that load
    /// first and pays the miss, so the law does not hold in general.
    #[test]
    fn wider_is_not_slower(trace in trace_strategy()) {
        let wide = run_source(&trace, &mut bc(), &PipelineConfig::paper());
        let mut narrow_cfg = PipelineConfig::paper();
        narrow_cfg.fetch_width = 1;
        narrow_cfg.dispatch_width = 1;
        narrow_cfg.issue_width = 1;
        narrow_cfg.commit_width = 1;
        let narrow = run_source(&trace, &mut bc(), &narrow_cfg);
        prop_assert!(
            wide.cycles <= narrow.cycles,
            "4-wide slower than 1-wide: {} vs {}",
            wide.cycles,
            narrow.cycles
        );
    }

    /// Architectural memory state after a run equals a purely functional
    /// replay of the trace.
    #[test]
    fn memory_state_matches_functional_replay(trace in dataflow_trace_strategy()) {
        let mut c = bc();
        run_source(&trace, &mut c, &PipelineConfig::paper());
        let mut functional = trace.initial_mem.clone();
        for i in &trace.insts {
            if let ccp_trace::Op::Store { addr, value } = i.op {
                functional.write(addr, value);
            }
        }
        for i in &trace.insts {
            if let ccp_trace::Op::Load { addr } | ccp_trace::Op::Store { addr, .. } = i.op {
                prop_assert_eq!(c.mem().read(addr), functional.read(addr), "at {:#x}", addr);
            }
        }
    }
}
