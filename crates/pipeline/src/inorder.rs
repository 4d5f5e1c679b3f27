//! A scalar in-order core model (stall-on-use), the counterpoint to the
//! out-of-order pipeline.
//!
//! The paper's §4.4 argument is that CPP's remaining misses matter *less*
//! because the out-of-order window overlaps them with independent work. An
//! in-order core cannot do that, so comparing the two machines isolates how
//! much of CPP's benefit comes from miss *placement* (off the dependence
//! chain) versus miss *count*. The extension harness runs both.
//!
//! Model: one instruction enters execution per cycle, in order; an
//! instruction stalls until its source operands' results are ready
//! (stall-on-use, not stall-on-miss: independent instructions after a load
//! may proceed until one uses the loaded value); loads/stores access the
//! hierarchy at execute; branches redirect with the same bimod + penalty
//! front-end as the OOO core; the I-cache charges its latencies.

use crate::{Bimod, ICache, PipelineConfig, RunStats};
use ccp_cache::CacheSim;
use ccp_trace::{Op, Trace, DEP_WINDOW};

/// Runs `trace` on a scalar in-order core over `cache`, reusing the
/// front-end parameters (predictor size, mispredict penalty) of `cfg`.
pub fn run_inorder(trace: &Trace, cache: &mut dyn CacheSim, cfg: &PipelineConfig) -> RunStats {
    *cache.mem_mut() = trace.initial_mem.clone();
    let mut bimod = Bimod::new(cfg.bimod_entries);
    let mut icache = ICache::paper();

    let mut stats = RunStats::default();

    // ready[i % RING] = cycle instruction i's result is available; a
    // dependence reaches at most RING - 1 instructions back.
    const RING: usize = DEP_WINDOW as usize;
    let mut ready = vec![0u64; RING];

    let mut now: u64 = 0;
    let mut cur_iblock = u32::MAX;
    for (i, inst) in trace.insts.iter().enumerate() {
        // Fetch: one I-cache access per new block.
        let block = inst.pc & !63;
        if block != cur_iblock {
            let lat = icache.access(inst.pc);
            cur_iblock = block;
            if lat > 1 {
                now += u64::from(lat) - 1;
            }
        }
        now += 1;

        // Stall until sources are ready.
        for d in inst.deps() {
            if d != 0 {
                let avail = ready[(i - d as usize) % RING];
                if avail > now {
                    now = avail;
                }
            }
        }

        // Execute.
        let done = match inst.op() {
            Op::IAlu { lat } | Op::FAlu { lat } => now + u64::from(lat),
            Op::Load { addr } => {
                stats.loads += 1;
                let r = cache.read_pc(addr, inst.pc);
                stats.load_sources.record(r.source);
                if r.l1_miss() {
                    stats.miss_cycles += u64::from(r.latency);
                }
                now + u64::from(r.latency)
            }
            Op::Store { addr, value } => {
                stats.stores += 1;
                // Stores retire through a one-entry store buffer: the cache
                // access happens now, the core does not wait for it.
                cache.write_pc(addr, value, inst.pc);
                now + 1
            }
            Op::Branch { taken } => {
                stats.branches += 1;
                let predicted = bimod.predict(inst.pc);
                bimod.update(inst.pc, taken);
                if predicted != taken {
                    stats.branch_mispredicts += 1;
                    now += u64::from(cfg.mispredict_penalty);
                }
                now + 1
            }
        };
        ready[i % RING] = done;
        stats.instructions += 1;
    }

    // Drain: the last instruction's completion bounds the run.
    stats.cycles = trace
        .insts
        .iter()
        .enumerate()
        .rev()
        .take(RING)
        .map(|(i, _)| ready[i % RING])
        .max()
        .unwrap_or(now)
        .max(now);
    stats.icache_misses = icache.misses();
    stats.hierarchy = *cache.stats();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_cache::{DesignKind, TwoLevelCache};
    use ccp_pipeline_test_helpers::*;

    mod ccp_pipeline_test_helpers {
        pub use ccp_trace::{ProgramCtx, H};
    }

    fn bc() -> TwoLevelCache {
        TwoLevelCache::paper(DesignKind::Bc)
    }

    #[test]
    fn scalar_core_runs_at_most_one_ipc() {
        let mut ctx = ProgramCtx::new("t");
        for _ in 0..200 {
            ctx.alu(H::NONE, H::NONE);
        }
        let t = ctx.finish();
        let s = run_inorder(&t, &mut bc(), &PipelineConfig::paper());
        assert_eq!(s.instructions, 200);
        assert!(s.ipc() <= 1.0 + 1e-9, "scalar bound: {}", s.ipc());
    }

    #[test]
    fn stall_on_use_not_stall_on_miss() {
        // A cold load followed by independent ALUs, then a use: the
        // independent work overlaps the miss even in order.
        let mk = |independents: usize| {
            let mut ctx = ProgramCtx::new("t");
            let (h, _) = ctx.load(0x5000, H::NONE);
            for _ in 0..independents {
                ctx.alu(H::NONE, H::NONE);
            }
            ctx.alu(h, H::NONE); // the use
            ctx.finish()
        };
        let cfg = PipelineConfig::paper();
        let short = run_inorder(&mk(0), &mut bc(), &cfg);
        let long = run_inorder(&mk(50), &mut bc(), &cfg);
        // 50 extra instructions fit under the 100-cycle miss shadow.
        assert!(
            long.cycles < short.cycles + 50,
            "independent work must overlap the miss: {} vs {}",
            long.cycles,
            short.cycles
        );
    }

    #[test]
    fn inorder_is_slower_than_ooo_on_real_work() {
        let b = ccp_trace::benchmark_by_name("health").unwrap();
        let t = b.trace(20_000, 1);
        let cfg = PipelineConfig::paper();
        let ooo = crate::run_source(&t, &mut bc(), &cfg);
        let ino = run_inorder(&t, &mut bc(), &cfg);
        assert!(
            ino.cycles > ooo.cycles,
            "in-order cannot beat 4-wide OOO: {} vs {}",
            ino.cycles,
            ooo.cycles
        );
    }

    #[test]
    fn deterministic() {
        let b = ccp_trace::benchmark_by_name("mst").unwrap();
        let t = b.trace(8_000, 1);
        let cfg = PipelineConfig::paper();
        let s1 = run_inorder(&t, &mut bc(), &cfg);
        let s2 = run_inorder(&t, &mut bc(), &cfg);
        assert_eq!(s1.cycles, s2.cycles);
    }

    #[test]
    fn mispredicts_cost_time_in_order_too() {
        let mk = |flip: bool| {
            let mut ctx = ProgramCtx::new("t");
            let head = ctx.label();
            for i in 0..300 {
                ctx.at(head);
                let c = ctx.alu(H::NONE, H::NONE);
                ctx.branch(flip && i % 2 == 0, c);
            }
            ctx.finish()
        };
        let cfg = PipelineConfig::paper();
        let steady = run_inorder(&mk(false), &mut bc(), &cfg);
        let flappy = run_inorder(&mk(true), &mut bc(), &cfg);
        assert!(flappy.cycles > steady.cycles);
    }
}
