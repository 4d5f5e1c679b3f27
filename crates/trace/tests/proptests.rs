//! Property tests for the trace substrate: builder well-formedness, the
//! value profile and the instruction mix under arbitrary programs.

use ccp_trace::{profile_source_values, Op, ProgramCtx, Trace, TraceSource, H};
use proptest::prelude::*;

/// Random builder scripts.
fn program_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u8..6, 0u32..0x2000, any::<u32>()), 0..200).prop_map(|steps| {
        let mut ctx = ProgramCtx::new("prop-trace");
        // Some setup state.
        ctx.init_write(0x9000, 0x1234_5678);
        let mut last = H::NONE;
        for (k, a, v) in steps {
            let addr = 0x8000 + (a & !3);
            last = match k {
                0 => ctx.alu(last, H::NONE),
                1 => ctx.div(last, last),
                2 => ctx.fmul(H::NONE, last),
                3 => ctx.load(addr, last).0,
                4 => ctx.store(addr, v, last, H::NONE),
                _ => ctx.branch(v & 1 == 0, last),
            };
        }
        ctx.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Anything the builder emits validates.
    #[test]
    fn builder_output_is_wellformed(trace in program_strategy()) {
        prop_assert!(trace.validate().is_ok());
        // Handles are strictly increasing, so deps point strictly backwards;
        // PCs are word-aligned.
        for i in &trace.insts {
            prop_assert_eq!(i.pc & 3, 0);
        }
    }

    /// profile_source_values visits exactly the memory operations, in order.
    #[test]
    fn profile_visits_mem_ops_in_order(trace in program_strategy()) {
        let mut visited = Vec::new();
        profile_source_values(&trace, |_, a| visited.push(a));
        let expected: Vec<u32> = trace
            .insts
            .iter()
            .filter_map(|i| match i.op() {
                Op::Load { addr } | Op::Store { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        prop_assert_eq!(visited, expected);
    }

    /// The instruction mix sums to the trace length.
    #[test]
    fn mix_total_matches_len(trace in program_strategy()) {
        prop_assert_eq!(trace.mix().total(), trace.len() as u64);
    }
}
