//! Property tests for the generator, covering the ISSUE's two contract
//! properties across the whole parameter space:
//!
//! 1. the same `(spec, seed, budget)` always yields the identical
//!    instruction stream, and
//! 2. the compressibility profile `ccp-compress` measures on the stream
//!    matches the requested small-value / pointer fractions within ±2%.

use ccp_trace::{profile_source_values, Op, TraceSource};
use ccp_workgen::{AddrModel, SynthSource, WorkgenSpec};
use proptest::prelude::*;

/// An arbitrary valid spec across all five address models.
fn spec_strategy() -> impl Strategy<Value = WorkgenSpec> {
    let addr = prop_oneof![
        1 => Just(AddrModel::Sequential),
        1 => (1u32..64).prop_map(|stride| AddrModel::Strided { stride }),
        2 => Just(AddrModel::Uniform),
        2 => (0u32..30).prop_map(|k| AddrModel::Zipf { skew: k as f64 / 10.0 }),
        1 => (2u32..4096).prop_map(|nodes| AddrModel::Chase { nodes }),
    ];
    (addr, (0u32..=10), (0u32..=10), (0u32..=10), (256u32..32768)).prop_map(
        |(addr, small, ptr_raw, entropy, footprint)| {
            let small_fraction = small as f64 / 10.0;
            let spec = WorkgenSpec {
                addr,
                value: ccp_workgen::ValueModel {
                    small_fraction,
                    // Keep small + ptr within 1 by scaling ptr into the remainder.
                    pointer_fraction: (1.0 - small_fraction) * ptr_raw as f64 / 10.0,
                    entropy: entropy as f64 / 10.0,
                },
                footprint_words: footprint,
                ..WorkgenSpec::default()
            };
            spec.validate().expect("strategy yields valid specs");
            spec
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed ⇒ bit-identical stream; different seed ⇒ a different one.
    #[test]
    fn same_seed_reproduces_the_stream(spec in spec_strategy(), seed in 0u64..1000) {
        let a = SynthSource::new(spec, seed, 3_000);
        let b = SynthSource::new(spec, seed, 3_000);
        let xs: Vec<_> = a.stream().collect();
        let ys: Vec<_> = b.stream().collect();
        prop_assert_eq!(xs.len(), ys.len());
        prop_assert_eq!(&xs, &ys);
        let c = SynthSource::new(spec, seed ^ 0x5555, 3_000);
        let zs: Vec<_> = c.stream().collect();
        prop_assert!(
            xs.iter().zip(&zs).any(|(x, z)| x.op() != z.op()),
            "independent seeds should diverge somewhere in 3k instructions"
        );
    }

    /// Streams honor the budget exactly and every access is word-aligned
    /// within the model's data region.
    #[test]
    fn streams_are_wellformed(spec in spec_strategy(), seed in 0u64..1000) {
        let src = SynthSource::new(spec, seed, 2_000);
        let mut n = 0u64;
        for inst in src.stream() {
            n += 1;
            if let Op::Load { addr } | Op::Store { addr, .. } = inst.op() {
                prop_assert_eq!(addr % 4, 0, "unaligned access {:#x}", addr);
                prop_assert!(addr >= ccp_workgen::DATA_BASE, "address {:#x} below data", addr);
            }
        }
        prop_assert_eq!(n, 2_000);
    }
}

proptest! {
    // Heavier cases: a long stream per case for tight statistics.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The measured compressibility profile tracks the requested fractions
    /// within ±2% (the ISSUE's acceptance bound). Chase is excluded: its
    /// pointer-follow loads read real next-node pointers whose chunk
    /// locality is a property of the heap layout, not of the value model.
    #[test]
    fn measured_profile_matches_request(
        small10 in 0u32..=10,
        ptr10 in 0u32..=10,
        seed in 0u64..1000,
    ) {
        let mut spec = WorkgenSpec::default();
        spec.value.small_fraction = small10 as f64 / 10.0;
        spec.value.pointer_fraction = (1.0 - spec.value.small_fraction) * ptr10 as f64 / 10.0;
        let src = SynthSource::new(spec, seed, 120_000);
        let mut p = ccp_compress::profile::ValueProfile::new();
        profile_source_values(&src, |v, a| p.record(v, a));
        prop_assert!(p.total() > 10_000);
        prop_assert!(
            (p.small_fraction() - spec.value.small_fraction).abs() < 0.02,
            "small: requested {} measured {}",
            spec.value.small_fraction,
            p.small_fraction()
        );
        prop_assert!(
            (p.pointer_fraction() - spec.value.pointer_fraction).abs() < 0.02,
            "pointer: requested {} measured {}",
            spec.value.pointer_fraction,
            p.pointer_fraction()
        );
    }
}
