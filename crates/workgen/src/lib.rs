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

//! `ccp-workgen`: composable, streaming synthetic-workload generation.
//!
//! The fourteen benchmark imitations in `ccp-trace` reproduce *programs*;
//! this crate generates *parameter spaces*. A [`WorkgenSpec`] crosses
//! three independent models:
//!
//! - **address** ([`AddrModel`]): sequential, strided, uniform-random,
//!   zipfian hot-set, or pointer-chase over a synthetic bump-allocated
//!   heap;
//! - **value** ([`ValueModel`]): the fraction of stored/loaded words that
//!   satisfy the paper's small-value rule, the fraction that satisfy the
//!   same-chunk pointer rule, and the entropy of the incompressible rest;
//! - **mix** ([`MixModel`]): load/store ratio and the ALU/branch/FP
//!   interleave around the memory accesses.
//!
//! Everything is seeded and deterministic: the same `(spec, seed, budget)`
//! always yields the same instruction stream, and the stream is a true
//! iterator holding O(spec) state — a 100M-reference workload never
//! materializes a `Vec`. Because each model draws from its own
//! sub-generator, sweeping the value model (e.g. small-value fraction
//! 0 → 1 in the `compressibility_sweep` experiment) leaves the address
//! and op sequences bit-identical, so traffic curves across sweep points
//! differ only in what the words hold.
//!
//! ```
//! use ccp_workgen::{SynthSource, WorkgenSpec};
//! use ccp_trace::TraceSource;
//!
//! let spec = WorkgenSpec::parse("workgen:addr=zipf,small=0.6").unwrap();
//! let source = SynthSource::new(spec, 7, 10_000);
//! assert_eq!(source.stream().count(), 10_000);
//! assert_eq!(source.len_hint(), Some(10_000));
//! ```

pub mod spec;
pub mod stream;
pub mod zipf;

pub use spec::{AddrModel, MixModel, ValueModel, WorkgenSpec};
pub use stream::{build_initial_mem, WorkgenStream, DATA_BASE, HEAP_BASE, NODE_BYTES};
pub use zipf::ZipfSampler;

use ccp_mem::MainMemory;
use ccp_trace::{Inst, TraceSource};

/// A workload generator: given a seed it produces an initial memory image
/// and, per `(seed, budget)`, a deterministic streaming pass over the
/// instruction stream. [`WorkgenSpec`] is the canonical implementation;
/// the trait exists so experiments can swap in hand-rolled generators
/// (replay of a recorded address stream, adversarial patterns) without
/// touching the simulators.
pub trait Workgen {
    /// Human-readable generator name (used as the workload label in sweep
    /// tables).
    fn name(&self) -> String;

    /// The memory image loads observe before any store, for `seed`.
    fn initial_mem(&self, seed: u64) -> MainMemory;

    /// A fresh deterministic pass of exactly `budget` instructions.
    fn stream(&self, seed: u64, budget: u64) -> Box<dyn Iterator<Item = Inst> + Send + '_>;
}

impl Workgen for WorkgenSpec {
    fn name(&self) -> String {
        self.to_string()
    }

    fn initial_mem(&self, seed: u64) -> MainMemory {
        build_initial_mem(self, seed)
    }

    fn stream(&self, seed: u64, budget: u64) -> Box<dyn Iterator<Item = Inst> + Send + '_> {
        Box::new(WorkgenStream::new(self, seed, budget))
    }
}

/// A [`WorkgenSpec`] pinned to a seed and budget: the [`TraceSource`] face
/// of the generator, directly usable wherever a benchmark trace is. Holds
/// no instruction storage — every [`TraceSource::stream`] call re-runs the
/// generator from scratch (cheap: generation is pure integer work).
pub struct SynthSource {
    spec: WorkgenSpec,
    seed: u64,
    budget: u64,
    name: String,
}

impl SynthSource {
    /// Pins `spec` to a seed and instruction budget.
    pub fn new(spec: WorkgenSpec, seed: u64, budget: u64) -> SynthSource {
        SynthSource {
            spec,
            seed,
            budget,
            name: spec.to_string(),
        }
    }

    /// The underlying specification.
    pub fn spec(&self) -> &WorkgenSpec {
        &self.spec
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl TraceSource for SynthSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn initial_mem(&self) -> MainMemory {
        build_initial_mem(&self.spec, self.seed)
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Inst> + '_> {
        Box::new(WorkgenStream::new(&self.spec, self.seed, self.budget))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_trace::{profile_source_values, Op};

    #[test]
    fn synth_source_streams_are_replayable() {
        let spec = WorkgenSpec::parse("addr=stride,stride=16,small=0.3").unwrap();
        let src = SynthSource::new(spec, 11, 4_000);
        let a: Vec<_> = src.stream().collect();
        let b: Vec<_> = src.stream().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4_000);
        assert_eq!(src.len_hint(), Some(4_000));
    }

    #[test]
    fn mix_tracks_the_requested_fractions() {
        let spec = WorkgenSpec::parse("mem=0.4,store=0.25,branch=0.12,falu=0.08").unwrap();
        let src = SynthSource::new(spec, 3, 200_000);
        let m = src.mix();
        let total = m.total() as f64;
        let mem = (m.loads + m.stores) as f64 / total;
        assert!((mem - 0.4).abs() < 0.01, "mem fraction {mem}");
        let stores = m.stores as f64 / (m.loads + m.stores) as f64;
        assert!((stores - 0.25).abs() < 0.01, "store fraction {stores}");
        assert!((m.branches as f64 / total - 0.12).abs() < 0.01);
        assert!((m.falu as f64 / total - 0.08).abs() < 0.01);
    }

    #[test]
    fn profiled_compressibility_tracks_the_value_model() {
        // Loads read the image, stores carry fresh draws; both come from
        // the same value model, so the *observed* profile (what the cache
        // compresses) lands on the requested fractions.
        let spec = WorkgenSpec::parse("addr=uniform,small=0.7,ptr=0.1").unwrap();
        let src = SynthSource::new(spec, 5, 150_000);
        let mut profile = ccp_compress::profile::ValueProfile::new();
        profile_source_values(&src, |v, a| profile.record(v, a));
        assert!(profile.total() > 0);
        assert!(
            (profile.small_fraction() - 0.7).abs() < 0.02,
            "small {:.4}",
            profile.small_fraction()
        );
        assert!(
            (profile.pointer_fraction() - 0.1).abs() < 0.02,
            "pointer {:.4}",
            profile.pointer_fraction()
        );
    }

    #[test]
    fn chase_loads_always_read_initialized_words() {
        let spec = WorkgenSpec::parse("addr=chase,nodes=512").unwrap();
        let src = SynthSource::new(spec, 9, 50_000);
        let mem = TraceSource::initial_mem(&src);
        for inst in src.stream() {
            if let Op::Load { addr } = inst.op() {
                // MainMemory::read of an untouched word returns 0; the
                // image fills pointer words with heap addresses, which are
                // never 0.
                if addr % NODE_BYTES == 0 {
                    assert_ne!(mem.read(addr), 0, "uninitialized pointer at {addr:#x}");
                }
            }
        }
    }

    #[test]
    fn workgen_trait_matches_synth_source() {
        let spec = WorkgenSpec::parse("addr=seq,footprint=256").unwrap();
        let via_trait: Vec<_> = Workgen::stream(&spec, 21, 1_000).map(|i| i.pc).collect();
        let via_source: Vec<_> = SynthSource::new(spec, 21, 1_000)
            .stream()
            .map(|i| i.pc)
            .collect();
        assert_eq!(via_trait, via_source);
        assert_eq!(Workgen::name(&spec), spec.to_string());
    }
}
