//! The `TraceSource` abstraction: anything that can feed a simulator an
//! instruction stream plus the initial memory image it runs against.
//!
//! A materialized [`Trace`] holds its whole instruction vector in memory —
//! fine for the paper's ~10M-instruction benchmark imitations, hopeless
//! for the 100M+-reference synthetic sweeps `ccp-workgen` generates. The
//! trait splits the two concerns: `stream()` hands out a fresh pass over
//! the instructions (a generator re-runs itself; a `Trace` just iterates
//! its vector), and consumers that genuinely stream — the windowed
//! pipeline core, the functional cache simulator, the value profiler —
//! never hold more than a bounded number of instructions at once.

use crate::{Addr, Inst, Op, Trace, TraceMix, Word};
use ccp_mem::MainMemory;
use std::sync::OnceLock;

/// A source of trace instructions: the 14 benchmark imitations (via their
/// materialized [`Trace`]s or [`BenchSource`]) and `ccp-workgen`'s
/// streaming generators both implement this.
///
/// Every call to [`TraceSource::stream`] restarts from the first
/// instruction — sources are replayable, which is what lets one source
/// feed several cache designs in a sweep.
pub trait TraceSource: Sync {
    /// Workload name (paper spelling for benchmarks, spec string for
    /// synthetics).
    fn name(&self) -> &str;

    /// Memory contents before the first instruction executes.
    fn initial_mem(&self) -> MainMemory;

    /// A fresh pass over the instruction stream, from the beginning.
    fn stream(&self) -> Box<dyn Iterator<Item = Inst> + '_>;

    /// Exact instruction count, when known without a streaming pass.
    fn len_hint(&self) -> Option<u64> {
        None
    }

    /// Collects the stream into a materialized [`Trace`]. Memory grows
    /// with stream length — only for sources known to be small.
    fn materialize(&self) -> Trace {
        Trace {
            name: self.name().to_string(),
            initial_mem: self.initial_mem(),
            insts: self.stream().collect(),
        }
    }

    /// Instruction mix, via one streaming pass.
    fn mix(&self) -> TraceMix {
        let mut m = TraceMix::default();
        for i in self.stream() {
            match i.op() {
                Op::IAlu { .. } => m.ialu += 1,
                Op::FAlu { .. } => m.falu += 1,
                Op::Load { .. } => m.loads += 1,
                Op::Store { .. } => m.stores += 1,
                Op::Branch { .. } => m.branches += 1,
            }
        }
        m
    }
}

impl TraceSource for Trace {
    fn name(&self) -> &str {
        &self.name
    }

    fn initial_mem(&self) -> MainMemory {
        self.initial_mem.clone()
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Inst> + '_> {
        Box::new(self.insts.iter().copied())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.insts.len() as u64)
    }

    fn materialize(&self) -> Trace {
        self.clone()
    }
}

/// A benchmark imitation pinned to a budget and seed, generated lazily on
/// first use and cached — the [`TraceSource`] face of
/// [`crate::Benchmark`].
pub struct BenchSource {
    bench: crate::Benchmark,
    budget: usize,
    seed: u64,
    cached: OnceLock<Trace>,
}

impl BenchSource {
    /// Wraps `bench` with its generation parameters; nothing is generated
    /// until the source is first used.
    pub fn new(bench: crate::Benchmark, budget: usize, seed: u64) -> Self {
        BenchSource {
            bench,
            budget,
            seed,
            cached: OnceLock::new(),
        }
    }

    /// The generated trace (first use generates and caches it).
    pub fn trace(&self) -> &Trace {
        self.cached
            .get_or_init(|| self.bench.trace(self.budget, self.seed))
    }
}

impl TraceSource for BenchSource {
    fn name(&self) -> &str {
        &self.trace().name
    }

    fn initial_mem(&self) -> MainMemory {
        self.trace().initial_mem.clone()
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Inst> + '_> {
        Box::new(self.trace().insts.iter().copied())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.trace().insts.len() as u64)
    }

    fn materialize(&self) -> Trace {
        self.trace().clone()
    }
}

/// Streams `source` functionally — replaying stores into a scratch copy of
/// its initial image — and feeds every accessed `(value, address)` pair to
/// `f` — the measurement loop behind the paper's Figure 3. Memory use is
/// bounded by the initial image plus the store footprint.
pub fn profile_source_values<F: FnMut(Word, Addr)>(source: &dyn TraceSource, mut f: F) {
    let mut mem = source.initial_mem();
    for i in source.stream() {
        match i.op() {
            Op::Load { addr } => f(mem.read(addr), addr),
            Op::Store { addr, value } => {
                f(value, addr);
                mem.write(addr, value);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark_by_name;

    #[test]
    fn trace_source_roundtrips() {
        let t = benchmark_by_name("health").unwrap().trace(2_000, 3);
        let src: &dyn TraceSource = &t;
        assert_eq!(src.name(), "olden.health");
        assert_eq!(src.len_hint(), Some(t.insts.len() as u64));
        assert_eq!(src.stream().count(), t.insts.len());
        assert_eq!(src.mix(), t.mix());
        let m = src.materialize();
        assert_eq!(m.insts.len(), t.insts.len());
    }

    #[test]
    fn bench_source_generates_lazily_and_caches() {
        let b = benchmark_by_name("mst").unwrap();
        let src = BenchSource::new(b, 2_000, 7);
        let direct = benchmark_by_name("mst").unwrap().trace(2_000, 7);
        assert_eq!(src.len_hint(), Some(direct.insts.len() as u64));
        // Two streams from the same source are identical (cached trace).
        let a: Vec<_> = src.stream().map(|i| i.pc).collect();
        let b: Vec<_> = src.stream().map(|i| i.pc).collect();
        assert_eq!(a, b);
    }
}
