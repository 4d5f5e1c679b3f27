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
//! Replay is batched: a block of instructions is first *decoded* into a
//! dense buffer of memory operations (discarding ALU/branch filler), then
//! the whole block is driven through the cache in a tight loop. The decode
//! loop touches only trace data and the drive loop only cache state, so
//! neither evicts the other's working set, and the per-op virtual dispatch
//! into `dyn CacheSim` runs over a dense array instead of interleaving with
//! stream decoding. Results are identical to one-at-a-time replay (stores
//! stay in program order; the warm-up boundary is honored per operation).

use ccp_cache::{Addr, CacheSim, HierarchyStats, Word};
use ccp_trace::{Inst, Op, Trace, TraceSource};

/// Decoded memory operations per drive block.
const BATCH_OPS: usize = 4096;

/// One decoded memory operation.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    addr: Addr,
    /// Store value; unused for loads.
    value: Word,
    pc: Addr,
    is_store: bool,
}

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
    let mut batch: Vec<MemOp> = Vec::with_capacity(BATCH_OPS);
    let mut insts = insts.fuse();
    loop {
        // Decode phase: fill the block with this stretch's memory ops.
        batch.clear();
        for inst in insts.by_ref() {
            match inst.op {
                Op::Load { addr } => batch.push(MemOp {
                    addr,
                    value: 0,
                    pc: inst.pc,
                    is_store: false,
                }),
                Op::Store { addr, value } => batch.push(MemOp {
                    addr,
                    value,
                    pc: inst.pc,
                    is_store: true,
                }),
                _ => continue,
            }
            if batch.len() == BATCH_OPS {
                break;
            }
        }
        if batch.is_empty() {
            break;
        }
        // Drive phase: replay the dense block through the cache.
        for op in &batch {
            if op.is_store {
                cache.write_pc(op.addr, op.value, op.pc);
            } else {
                cache.read_pc(op.addr, op.pc);
            }
            seen += 1;
            if warm {
                if op.is_store {
                    stats.stores += 1;
                } else {
                    stats.loads += 1;
                }
            } else if seen >= warmup_mem_ops {
                cache.reset_stats();
                warm = true;
            }
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
    use ccp_cache::DesignKind;
    use ccp_trace::benchmark_by_name;

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
    fn warmup_boundary_is_exact_at_batch_edges() {
        // The warm-up window ends per operation, not per decoded batch:
        // boundaries on either side of a batch edge and of the trace end
        // must leave exactly the remaining operations measured.
        let t = benchmark_by_name("olden.health").unwrap().trace(30_000, 1);
        let m = t.mix();
        let total = m.loads + m.stores;
        let batch = BATCH_OPS as u64;
        assert!(total > batch + 1, "trace must span more than one batch");
        for w in [1, batch - 1, batch, batch + 1, total - 1, total, total + 1] {
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
}
