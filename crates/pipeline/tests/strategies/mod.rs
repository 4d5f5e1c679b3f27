//! Random programs and machines shared by the pipeline's property tests:
//! `tests/proptests.rs` and the stepped-oracle test inside the crate,
//! which includes this file by path. Both parents bring `PipelineConfig`
//! and `PredictorKind` into scope.

use super::{PipelineConfig, PredictorKind};
use ccp_trace::{Inst, Op, ProgramCtx, Trace, H};
use proptest::prelude::*;

/// A random machine: every width, queue and unit count at least one. One
/// draw in four fills the out-of-order run's 64-slot in-flight ring
/// (IFQ + RUU + 1 = 64), so its wrap is exercised at full occupancy.
pub fn config_strategy() -> impl Strategy<Value = PipelineConfig> {
    let queues = prop_oneof![
        3 => (1usize..=8, 1usize..=16),
        1 => (1usize..=62).prop_map(|ruu| (63 - ruu, ruu)),
    ];
    (
        (1u32..=4, 1u32..=4, 1u32..=4, 1u32..=4),
        (queues, 1usize..=8, 1usize..=8),
        (1u32..=4, 1u32..=2, 1u32..=4, 1u32..=2, 1u32..=2),
        (0u32..=20, any::<bool>()),
    )
        .prop_map(
            |(
                (fw, dw, iw, cw),
                ((ifq, ruu), lsq, mshrs),
                (ialu, imd, falu, fmd, ports),
                (pen, gs),
            )| {
                PipelineConfig {
                    fetch_width: fw,
                    dispatch_width: dw,
                    issue_width: iw,
                    commit_width: cw,
                    ifq_size: ifq,
                    ruu_size: ruu,
                    lsq_size: lsq,
                    n_ialu: ialu,
                    n_imuldiv: imd,
                    n_falu: falu,
                    n_fmuldiv: fmd,
                    n_memports: ports,
                    predictor: if gs {
                        PredictorKind::Gshare
                    } else {
                        PredictorKind::Bimod
                    },
                    bimod_entries: 2048,
                    mispredict_penalty: pen,
                    mshrs,
                }
            },
        )
}

/// A random program with real dataflow: each op reads up to two of the
/// 23 ops before it, one integer op in four takes 0 cycles (any `Inst`
/// may carry latency 0; their consumers can issue in the producer's own
/// cycle), and memory ops mix a hot 32-word region (store forwarding and
/// same-word stalls) with a line-strided cold one (L1, L2 and memory
/// misses that fill the MSHRs).
pub fn dataflow_trace_strategy() -> impl Strategy<Value = Trace> {
    let step = (0u32..16, 0u32..8192, 0usize..24, 0usize..24);
    prop::collection::vec(step, 1..400).prop_map(|steps| {
        let mut ctx = ProgramCtx::new("dataflow");
        let loop_head = ctx.label();
        let mut handles: Vec<H> = Vec::with_capacity(steps.len());
        let mut zero_latency = Vec::new();
        for (i, &(kind, x, d1, d2)) in steps.iter().enumerate() {
            if i % 32 == 0 {
                ctx.at(loop_head);
            }
            let dep = |d: usize| match d {
                0 => H::NONE,
                d => handles.len().checked_sub(d).map_or(H::NONE, |j| handles[j]),
            };
            let (a, b) = (dep(d1), dep(d2));
            let addr = if x & 1 == 0 {
                0x10_0000 + ((x >> 1) & 31) * 4
            } else {
                0x20_0000 + (x >> 1) * 64
            };
            let h = match kind {
                0..=4 => ctx.alu(a, b),
                5 | 6 => {
                    zero_latency.push(i);
                    ctx.alu(a, b)
                }
                7 => ctx.mult(a, b),
                8 => ctx.falu(a, b),
                9..=11 => ctx.load(addr, a).0,
                12 | 13 => ctx.store(addr, x, a, b),
                _ => ctx.branch(x & 2 == 0, a),
            };
            handles.push(h);
        }
        let mut trace = ctx.finish();
        for i in zero_latency {
            let inst = trace.insts[i];
            trace.insts[i] = Inst::new(Op::IAlu { lat: 0 }, inst.pc, inst.deps().map(u64::from));
        }
        trace
    })
}
