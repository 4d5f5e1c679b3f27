//! Fast functional cache simulation (the `sim-cache` to the pipeline's
//! `sim-outorder`): replays only the memory operations of a trace through a
//! hierarchy, skipping all timing. Roughly an order of magnitude faster
//! than the pipeline — right for miss-rate/traffic studies, warm-up
//! sensitivity checks, and long-trace smoke tests where cycles don't
//! matter.
//!
//! Stores are applied in program order (the pipeline commits them in order
//! too, so miss/traffic counts agree with pipelined runs whenever accesses
//! don't reorder around them — loads may issue out of order there, so small
//! divergences are expected and tested for).
//!
//! Each memory operation is driven into the hierarchy from the `match`
//! that decodes it. Decoding a block of operations into a buffer first and
//! then driving the block (an earlier design, 4096 operations per block)
//! only added a 64 KB buffer to write and read back: deleting it saved
//! 0.2–0.4 ms of the 1–5.5 ms a 200k-instruction benchmark replay takes
//! under CPP (DESIGN.md §13, "Why replay is not batched").

use ccp_cache::{CacheSim, HierarchyStats};
use ccp_trace::{Inst, Op, Trace, TraceSource};

/// Results of a functional run.
#[derive(Debug, Clone)]
pub struct FastStats {
    /// Memory operations replayed (after warm-up).
    pub mem_ops: u64,
    /// Loads replayed.
    pub loads: u64,
    /// Stores replayed.
    pub stores: u64,
    /// Hierarchy counters accumulated after warm-up.
    pub hierarchy: HierarchyStats,
}

impl FastStats {
    /// L1 miss rate over demand accesses.
    pub fn l1_miss_rate(&self) -> f64 {
        self.hierarchy.l1.miss_rate()
    }
}

/// Replays `trace`'s memory operations through `cache`. The first
/// `warmup_mem_ops` memory operations run with statistics discarded
/// (hierarchy state, including cache contents, is kept — exactly what
/// cache-warm-up means).
pub fn run_functional(trace: &Trace, cache: &mut dyn CacheSim, warmup_mem_ops: u64) -> FastStats {
    *cache.mem_mut() = trace.initial_mem.clone();
    replay(trace.insts.iter().copied(), cache, warmup_mem_ops)
}

/// Streaming counterpart of [`run_functional`]: replays a
/// [`TraceSource`]'s memory operations without materializing the stream.
pub fn run_functional_source(
    source: &dyn TraceSource,
    cache: &mut dyn CacheSim,
    warmup_mem_ops: u64,
) -> FastStats {
    *cache.mem_mut() = source.initial_mem();
    replay(source.stream(), cache, warmup_mem_ops)
}

fn replay<I: Iterator<Item = Inst>>(
    insts: I,
    cache: &mut dyn CacheSim,
    warmup_mem_ops: u64,
) -> FastStats {
    let mut seen = 0u64;
    let mut stats = FastStats {
        mem_ops: 0,
        loads: 0,
        stores: 0,
        hierarchy: HierarchyStats::default(),
    };
    let mut warm = warmup_mem_ops == 0;
    if !warm {
        cache.reset_stats();
    }
    for inst in insts {
        let is_store = match inst.op() {
            Op::Load { addr } => {
                cache.read_pc(addr, inst.pc);
                false
            }
            Op::Store { addr, value } => {
                cache.write_pc(addr, value, inst.pc);
                true
            }
            _ => continue,
        };
        seen += 1;
        if warm {
            if is_store {
                stats.stores += 1;
            } else {
                stats.loads += 1;
            }
        } else if seen >= warmup_mem_ops {
            cache.reset_stats();
            warm = true;
        }
    }
    if !warm {
        // The warm-up window outlasted the trace: nothing measured.
        cache.reset_stats();
    }
    stats.mem_ops = stats.loads + stats.stores;
    stats.hierarchy = *cache.stats();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_design;
    use ccp_cache::{
        AccessResult, Addr, DesignKind, HitSource, LatencyConfig, StrideHierarchy, Word,
    };
    use ccp_mem::MainMemory;
    use ccp_trace::benchmark_by_name;
    use ccp_workgen::{SynthSource, WorkgenSpec};

    #[test]
    fn functional_run_counts_mem_ops() {
        let t = benchmark_by_name("health").unwrap().trace(10_000, 1);
        let mut c = build_design(DesignKind::Bc);
        let s = run_functional(&t, c.as_mut(), 0);
        let m = t.mix();
        assert_eq!(s.loads, m.loads);
        assert_eq!(s.stores, m.stores);
        assert_eq!(s.hierarchy.l1.accesses(), m.loads + m.stores);
    }

    #[test]
    fn warmup_discards_cold_misses() {
        let t = benchmark_by_name("treeadd").unwrap().trace(30_000, 1);
        let mut cold = build_design(DesignKind::Bc);
        let s_cold = run_functional(&t, cold.as_mut(), 0);
        let mut warm = build_design(DesignKind::Bc);
        let s_warm = run_functional(&t, warm.as_mut(), 4_000);
        assert!(
            s_warm.l1_miss_rate() < s_cold.l1_miss_rate(),
            "warm-up must hide cold misses: {:.4} vs {:.4}",
            s_warm.l1_miss_rate(),
            s_cold.l1_miss_rate()
        );
    }

    #[test]
    fn functional_and_pipelined_miss_counts_are_close() {
        // The pipeline reorders loads slightly; totals must agree within a
        // small tolerance.
        let t = benchmark_by_name("mst").unwrap().trace(20_000, 1);
        let mut f = build_design(DesignKind::Bc);
        let fs = run_functional(&t, f.as_mut(), 0);
        let mut p = build_design(DesignKind::Bc);
        let ps = ccp_pipeline::run_source(&t, p.as_mut(), &ccp_pipeline::PipelineConfig::paper());
        let fm = fs.hierarchy.l1.misses() as f64;
        let pm = ps.hierarchy.l1.misses() as f64;
        assert!(
            (fm - pm).abs() / fm.max(1.0) < 0.08,
            "functional {fm} vs pipelined {pm} miss counts diverged"
        );
    }

    #[test]
    fn warmup_longer_than_trace_yields_empty_stats() {
        let t = benchmark_by_name("130.li").unwrap().trace(2_000, 1);
        let mut c = build_design(DesignKind::Cpp);
        let s = run_functional(&t, c.as_mut(), u64::MAX);
        assert_eq!(s.mem_ops, 0);
        assert_eq!(s.hierarchy.l1.accesses(), 0);
    }

    #[test]
    fn all_designs_run_functionally() {
        let t = benchmark_by_name("300.twolf").unwrap().trace(5_000, 1);
        for d in DesignKind::ALL {
            let mut c = build_design(d);
            let s = run_functional(&t, c.as_mut(), 0);
            assert!(s.mem_ops > 0, "{}", d.name());
        }
    }

    #[test]
    fn warmup_boundary_is_exact_per_operation() {
        // The warm-up window ends per operation: boundaries around 4096
        // (the block edge of an earlier batched replay) and around the
        // trace end must leave exactly the remaining operations measured.
        let t = benchmark_by_name("olden.health").unwrap().trace(30_000, 1);
        let m = t.mix();
        let total = m.loads + m.stores;
        assert!(total > 4097, "trace must outlast every fixed boundary");
        for w in [1, 4095, 4096, 4097, total - 1, total, total + 1] {
            let mut c = build_design(DesignKind::Cpp);
            let s = run_functional(&t, c.as_mut(), w);
            assert_eq!(s.mem_ops, total.saturating_sub(w), "warmup={w}: mem_ops");
            assert_eq!(
                s.hierarchy.l1.accesses(),
                s.mem_ops,
                "warmup={w}: L1 accesses"
            );
        }
    }

    #[test]
    fn entry_points_agree() {
        // A materialized trace replayed through either entry point, and the
        // streaming source it was collected from, give the same counters —
        // for a PC-indexed design (SPT) too, and across warm-up boundaries.
        let spec = WorkgenSpec::parse("addr=zipf,small=0.5,store=0.3").unwrap();
        let stream = SynthSource::new(spec, 5, 20_000);
        let t = stream.materialize();
        let m = t.mix();
        let total = m.loads + m.stores;
        assert!(total > 4096, "trace must outlast a 4096-op warm-up");
        let make = |name: &str| -> Box<dyn CacheSim> {
            match name {
                "SPT" => Box::new(StrideHierarchy::paper()),
                "BC" => build_design(DesignKind::Bc),
                _ => build_design(DesignKind::Cpp),
            }
        };
        let key = |s: FastStats| (s.loads, s.stores, s.mem_ops, s.hierarchy);
        for name in ["BC", "SPT", "CPP"] {
            for w in [0, 1, 4096, total - 1] {
                let a = key(run_functional(&t, make(name).as_mut(), w));
                let b = key(run_functional_source(&t, make(name).as_mut(), w));
                let c = key(run_functional_source(&stream, make(name).as_mut(), w));
                assert_eq!(a, b, "{name} warmup={w}: trace vs trace source");
                assert_eq!(a, c, "{name} warmup={w}: trace vs stream");
            }
        }
    }

    /// One access as a [`Recorder`] saw it; the PC is `None` when the
    /// access came through the PC-less `read`/`write`.
    #[derive(Debug, PartialEq)]
    enum Issued {
        Read(Addr, Option<u32>),
        Write(Addr, Word, Option<u32>),
    }

    /// A hierarchy that only records what it is asked to do.
    #[derive(Default)]
    struct Recorder {
        issued: Vec<Issued>,
        mem: MainMemory,
        stats: HierarchyStats,
    }

    const HIT: AccessResult = AccessResult {
        latency: 1,
        source: HitSource::L1,
    };

    impl CacheSim for Recorder {
        fn read(&mut self, addr: Addr) -> AccessResult {
            self.issued.push(Issued::Read(addr, None));
            HIT
        }
        fn write(&mut self, addr: Addr, value: Word) -> AccessResult {
            self.issued.push(Issued::Write(addr, value, None));
            HIT
        }
        fn read_pc(&mut self, addr: Addr, pc: u32) -> AccessResult {
            self.issued.push(Issued::Read(addr, Some(pc)));
            HIT
        }
        fn write_pc(&mut self, addr: Addr, value: Word, pc: u32) -> AccessResult {
            self.issued.push(Issued::Write(addr, value, Some(pc)));
            HIT
        }
        fn probe_l1(&self, _addr: Addr) -> bool {
            true
        }
        fn stats(&self) -> &HierarchyStats {
            &self.stats
        }
        fn reset_stats(&mut self) {}
        fn latencies(&self) -> LatencyConfig {
            LatencyConfig::paper()
        }
        fn set_latencies(&mut self, _lat: LatencyConfig) {}
        fn mem(&self) -> &MainMemory {
            &self.mem
        }
        fn mem_mut(&mut self) -> &mut MainMemory {
            &mut self.mem
        }
        fn name(&self) -> &'static str {
            "recorder"
        }
    }

    #[test]
    fn replay_issues_exactly_the_traces_memory_ops() {
        // Every load and store reaches the hierarchy once, in program order,
        // with its PC (and a store with its value); ALU and branch ops
        // reach it not at all. Warm-up hides counters, never accesses.
        let t = benchmark_by_name("mst").unwrap().trace(5_000, 3);
        let m = t.mix();
        assert!(m.ialu > 0 && m.branches > 0 && m.stores > 0);
        let expected: Vec<Issued> = t
            .insts
            .iter()
            .filter_map(|i| match i.op() {
                Op::Load { addr } => Some(Issued::Read(addr, Some(i.pc))),
                Op::Store { addr, value } => Some(Issued::Write(addr, value, Some(i.pc))),
                _ => None,
            })
            .collect();
        for w in [0, 100] {
            let mut r = Recorder::default();
            run_functional(&t, &mut r, w);
            assert_eq!(r.issued, expected, "run_functional, warmup={w}");
            let mut r = Recorder::default();
            run_functional_source(&t, &mut r, w);
            assert_eq!(r.issued, expected, "run_functional_source, warmup={w}");
        }
    }
}
