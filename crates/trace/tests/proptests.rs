//! Property tests for the trace substrate: builder well-formedness and
//! serialization fidelity under arbitrary programs.

use ccp_trace::{profile_source_values, Op, ProgramCtx, Trace, DEP_WINDOW, H};
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

/// Instructions in [`far_dependence_bytes`]' trace.
const FAR_LEN: u64 = 10_000;

/// A `.ccpt` file of [`FAR_LEN`] independent ALU ops, and the offset of
/// the last one's dep1 field (13 bytes into its 21-byte record).
fn far_dependence_bytes() -> (Vec<u8>, usize) {
    let mut ctx = ProgramCtx::new("far");
    for _ in 0..FAR_LEN {
        ctx.alu(H::NONE, H::NONE);
    }
    let bytes = ctx.finish().to_bytes();
    let at = bytes.len() - 21 + 13;
    (bytes, at)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A dependence written to a `.ccpt` file up to `DEP_WINDOW - 1`
    /// instructions back decodes to exactly that distance, and one reaching
    /// farther decodes, and is written again, as no dependence.
    #[test]
    fn codec_keeps_the_dependence_window(back in 1..FAR_LEN) {
        let (mut bytes, at) = far_dependence_bytes();
        let consumer = FAR_LEN - 1;
        let handle = (consumer + 1 - back) as u32;
        bytes[at..at + 4].copy_from_slice(&handle.to_le_bytes());
        let t = Trace::from_bytes(&bytes).expect("a backward dependence decodes");
        let kept = if back < DEP_WINDOW { back as u32 } else { 0 };
        prop_assert_eq!(t.insts[consumer as usize].deps(), [kept, 0]);
        let again = t.to_bytes();
        let written = if kept == 0 { 0 } else { handle };
        prop_assert_eq!(&again[at..at + 4], &written.to_le_bytes());
    }

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

    /// Serialization is lossless for arbitrary programs.
    #[test]
    fn serialize_roundtrip(trace in program_strategy()) {
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("roundtrip");
        prop_assert_eq!(&back.name, &trace.name);
        prop_assert_eq!(back.len(), trace.len());
        prop_assert_eq!(&back.insts, &trace.insts);
        // Memory images agree over the touched region.
        for x in (0x8000u32..0xA000).step_by(4) {
            prop_assert_eq!(back.initial_mem.read(x), trace.initial_mem.read(x));
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
