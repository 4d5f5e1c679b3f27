//! `replay`: functional replay, no pipeline, through the CPP hierarchy
//! under each compression scheme (CPP, BDI, FPC), over two inputs:
//!
//! * the 14 benchmark traces, which are read-mostly;
//! * one store-heavy `workgen:` stream over a 128 KB footprint (2× L2)
//!   where about 55% of values compress, so stores keep flipping words
//!   across the compressible/incompressible boundary and drive the §3.3
//!   transitions, parking and write-backs.
//!
//! Classification and the hierarchy do nearly all the work here and
//! `ccp-pipeline` does none, so a gain on the read-hit path that costs the
//! write path shows up as a split between the two inputs. Both inputs are
//! materialised in set-up; every replay builds a fresh hierarchy, so the
//! modelled caches start empty.

use crate::expect::{fingerprint, Checker, Expectations};
use crate::report::{median, min, percentile, spread, Record};
use crate::spans::{TimedCache, TimedSource, Tracer};
use crate::Ctx;
use ccp_cache::{DesignKind, HierarchyConfig, HierarchyStats};
use ccp_cpp::RefCppHierarchy;
use ccp_errors::SimResult;
use ccp_mem::MainMemory;
use ccp_schemes::{BdiScheme, CompressionScheme, CppScheme, FpcScheme, SchemeKind};
use ccp_sim::fastsim::{run_functional, run_functional_source, FastStats};
use ccp_trace::{all_benchmarks, Trace, TraceSource};
use ccp_workgen::{SynthSource, WorkgenSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Instructions per benchmark trace and in the store stream.
pub const BUDGET: usize = 200_000;

/// The store-heavy stream: uniform addresses over 32768 words (128 KB),
/// 45% small values and 10% pointers, half of the memory ops stores.
pub const STORE_SPEC: &str = "workgen:addr=uniform,small=0.45,ptr=0.1,store=0.5,footprint=32768";

const SCHEMES: [SchemeKind; 3] = [SchemeKind::Cpp, SchemeKind::Bdi, SchemeKind::Fpc];

const EXPECTED: &str = include_str!("../expect/replay.txt");

/// Words per classified line: the paper's 64-byte L1 line.
const LINE_WORDS: usize = 16;

/// Operation order: input (benchmarks in paper order, then the store
/// stream), then scheme. Expectation rows follow this order.
fn ops(inputs: usize) -> Vec<(usize, SchemeKind)> {
    (0..inputs)
        .flat_map(|i| SCHEMES.iter().map(move |&s| (i, s)))
        .collect()
}

fn config() -> String {
    format!(
        "budget={BUDGET} ops={} order=input,scheme store={STORE_SPEC}",
        ops(all_benchmarks().len() + 1).len()
    )
}

/// The 14 benchmark traces, then the store stream (the last input).
fn setup(seed: u64, tracer: Option<&Tracer>) -> Vec<Trace> {
    let mut traces: Vec<Trace> = all_benchmarks()
        .iter()
        .enumerate()
        .map(|(i, b)| match tracer {
            Some(t) => t.time("trace.gen", i as u64, None, || b.trace(BUDGET, seed)),
            None => b.trace(BUDGET, seed),
        })
        .collect();
    let spec = WorkgenSpec::parse(STORE_SPEC).expect("store stream spec is valid");
    let gen = || SynthSource::new(spec, seed, BUDGET as u64).materialize();
    traces.push(match tracer {
        Some(t) => t.time("workgen.gen", 0, None, gen),
        None => gen(),
    });
    traces
}

fn hierarchy(scheme: SchemeKind) -> Box<dyn ccp_cache::CacheSim> {
    ccp_sim::build_design_scheme(HierarchyConfig::paper(DesignKind::Cpp), scheme)
}

fn replay(trace: &Trace, scheme: SchemeKind) -> FastStats {
    let mut cache = hierarchy(scheme);
    run_functional(trace, cache.as_mut(), 0)
}

fn check_op(
    rec: &mut Record,
    checker: &mut Checker,
    inputs: &[Trace],
    i: usize,
    op: (usize, SchemeKind),
    stats: &FastStats,
) {
    let verdict = checker.check(i, fingerprint(stats));
    rec.check(verdict.is_ok(), || {
        format!(
            "replay {}/{}: {}",
            inputs[op.0].name,
            op.1.name(),
            verdict.unwrap_err()
        )
    });
}

/// The untraced run: whole passes over every (input, scheme) replay.
pub fn run(ctx: &Ctx, rec: &mut Record) -> SimResult<()> {
    let (inputs, setup_s) = ctx.set_up(|| Ok(setup(ctx.seed, None)))?;
    let ops = ops(inputs.len());
    let expected = Expectations::parse(EXPECTED);
    let mut checker = Checker::new(expected.for_seed(&config(), ctx.seed), ops.len());
    let store = inputs.len() - 1;

    let mut op_ms: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let mut mem_ops = vec![0u64; ops.len()];
    let mut cpp_stats: Vec<Option<HierarchyStats>> = vec![None; inputs.len()];
    let passes = ctx.passes(|| {
        for (i, &op) in ops.iter().enumerate() {
            let t = Instant::now();
            let s = replay(&inputs[op.0], op.1);
            op_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            mem_ops[i] = s.mem_ops;
            check_op(rec, &mut checker, &inputs, i, op, &s);
            if op.1 == SchemeKind::Cpp {
                cpp_stats[op.0] = Some(s.hierarchy);
            }
        }
    });
    reference_check(rec, &inputs, &cpp_stats);

    // Each replay's host time is its fastest repetition: other load on a
    // shared host only ever slows a replay down.
    let best: Vec<f64> = op_ms.iter().map(|v| min(v)).collect();
    let part = |store_input: bool| -> (Vec<f64>, f64) {
        let idx = (0..ops.len()).filter(|&i| (ops[i].0 == store) == store_input);
        let ms: Vec<f64> = idx.clone().map(|i| best[i]).collect();
        let n: u64 = idx.map(|i| mem_ops[i]).sum();
        let rate = n as f64 / (ms.iter().sum::<f64>() * 1e-3);
        (ms, rate)
    };
    let (main_op, main_rate) = part(false);
    let (alt_op, alt_rate) = part(true);
    let pass_rates: Vec<f64> = (0..passes as usize)
        .map(|p| {
            mem_ops.iter().sum::<u64>() as f64
                / ((0..ops.len()).map(|i| op_ms[i][p]).sum::<f64>() * 1e-3)
        })
        .collect();
    if !checker.verified() {
        rec.unverified.push(format!(
            "replay seed {} has no recorded HierarchyStats; replays checked against the reference engine (CPP scheme) and for repeatability",
            ctx.seed
        ));
    }
    rec.note(format!(
        "replay: {} inputs x {} schemes = {} replays per pass, {passes} passes, budget {BUDGET}; {} memory ops per pass; each replay's host time is its fastest of {passes} repetitions; caches start empty in every replay",
        inputs.len(),
        SCHEMES.len(),
        ops.len(),
        mem_ops.iter().sum::<u64>()
    ));
    rec.prov("budget", BUDGET);
    rec.prov("repetitions", passes);
    rec.prov(
        "spread_pass_throughput",
        format!("{:.4}", spread(&pass_rates)),
    );
    rec.prov("setups", setup_s.len());

    rec.metric(
        "setup_s",
        median(&setup_s),
        "s",
        "median host time to generate the 14 traces and materialise the store stream",
    );
    rec.metric(
        "throughput",
        main_rate,
        "op/s",
        "replay_mops_s x1e6: memory ops replayed per host second, 14 benchmark traces x 3 schemes",
    );
    rec.metric(
        "p50_ms",
        median(&main_op),
        "ms",
        format!(
            "median host ms per benchmark-trace replay ({} replays)",
            main_op.len()
        ),
    );
    rec.metric(
        "tail_ms",
        percentile(&main_op, 90.0),
        "ms",
        format!(
            "90th-percentile host ms per benchmark-trace replay ({} replays)",
            main_op.len()
        ),
    );
    rec.metric("alt_throughput", alt_rate, "op/s", "replay_store_mops_s x1e6: memory ops replayed per host second, store-heavy stream x 3 schemes");
    rec.metric(
        "alt_p50_ms",
        median(&alt_op),
        "ms",
        format!(
            "median host ms per store-stream replay ({} replays)",
            alt_op.len()
        ),
    );
    rec.metric(
        "alt_tail_ms",
        percentile(&alt_op, 90.0),
        "ms",
        format!(
            "90th-percentile host ms per store-stream replay ({} replays)",
            alt_op.len()
        ),
    );
    Ok(())
}

/// Re-checks the CPP-scheme benchmark replays once, untimed, against the
/// naive reference engine.
fn reference_check(rec: &mut Record, inputs: &[Trace], cpp: &[Option<HierarchyStats>]) {
    for (i, trace) in inputs[..inputs.len() - 1].iter().enumerate() {
        let mut reference = RefCppHierarchy::paper();
        let r = run_functional(trace, &mut reference, 0);
        rec.check(cpp[i] == Some(r.hierarchy), || {
            format!("replay {}/CPP differs from RefCppHierarchy", trace.name)
        });
    }
}

/// Classifies every line of `mem` with `kernel`, as one span.
fn classify(
    tracer: &Tracer,
    id: u64,
    mem: &MainMemory,
    kernel: fn(&[u32], u32) -> u32,
) -> (u64, u64) {
    let start = tracer.now_ns();
    let (mut lines, mut compressible) = (0u64, 0u64);
    for page in mem.page_numbers() {
        let words = mem.page_words(page).expect("listed page is resident");
        for (l, line) in words.chunks_exact(LINE_WORDS).enumerate() {
            let base = (page << 12) + (l * LINE_WORDS * 4) as u32;
            compressible += u64::from(black_box(kernel(black_box(line), base)).count_ones());
            lines += 1;
        }
    }
    tracer.record("compress.lines", id, None, start, tracer.now_ns(), lines);
    (lines, compressible)
}

/// One untraced and one traced pass over every replay, plus the
/// classification kernels over each replayed memory image.
pub fn traced(ctx: &Ctx, tracer: &Tracer, rec: &mut Record) {
    let inputs = setup(ctx.seed, Some(tracer));
    let ops = ops(inputs.len());
    let expected = Expectations::parse(EXPECTED);
    let mut checker = Checker::new(expected.for_seed(&config(), ctx.seed), ops.len());

    let t = Instant::now();
    let mut cpp_stats = vec![None; inputs.len()];
    for (i, &op) in ops.iter().enumerate() {
        let s = replay(&inputs[op.0], op.1);
        check_op(rec, &mut checker, &inputs, i, op, &s);
        if op.1 == SchemeKind::Cpp {
            cpp_stats[op.0] = Some(s.hierarchy);
        }
    }
    let untraced_s = t.elapsed().as_secs_f64();
    reference_check(rec, &inputs, &cpp_stats);

    let t = Instant::now();
    let mut totals = HierarchyStats::default();
    for (i, &op) in ops.iter().enumerate() {
        let span = tracer.open("replay.op", i as u64, None);
        let src = TimedSource::new(&inputs[op.0]);
        let b0 = tracer.now_ns();
        let inner = hierarchy(op.1);
        tracer.record(
            "hierarchy.build",
            i as u64,
            Some(span),
            b0,
            tracer.now_ns(),
            1,
        );
        let mut cache = TimedCache::new(inner);
        let s = run_functional_source(&src, &mut cache, 0);
        tracer.close(span, s.mem_ops);
        let ct = cache.timing();
        tracer.aggregate(
            "hierarchy",
            i as u64,
            span,
            ct.busy_ns,
            ct.reads + ct.writes + ct.probes,
        );
        tracer.add("hierarchy.reads", ct.reads);
        tracer.add("hierarchy.writes", ct.writes);
        let st = src.timing();
        tracer.aggregate(
            "trace.stream",
            i as u64,
            span,
            st.stream_ns,
            st.stream_items,
        );
        tracer.aggregate("mem.image", i as u64, span, st.image_ns, st.image_calls);
        check_op(rec, &mut checker, &inputs, i, op, &s);
        totals.absorb_shard(&s.hierarchy);
    }
    let traced_s = t.elapsed().as_secs_f64();

    let (mut lines, mut compressible) = (0u64, 0u64);
    for (i, trace) in inputs.iter().enumerate() {
        let mem = &trace.initial_mem;
        for kernel in [
            ccp_compress::line_compress_mask as fn(&[u32], u32) -> u32,
            CppScheme::line_mask,
            BdiScheme::line_mask,
            FpcScheme::line_mask,
        ] {
            let (l, c) = classify(tracer, i as u64, mem, kernel);
            lines += l;
            compressible += c;
        }
    }

    let (replay_ns, _, _) = tracer.total("replay.op");
    let (class_ns, _, _) = tracer.total("compress.lines");
    let l1 = totals.l1;
    let l2 = totals.l2;
    rec.metric(
        "trace.overhead_frac.replay",
        traced_s / untraced_s - 1.0,
        "ratio",
        format!("traced pass {traced_s:.3} s over untraced pass {untraced_s:.3} s, minus 1"),
    );
    rec.metric(
        "fastsim.replay_s",
        replay_ns as f64 * 1e-9,
        "s",
        format!("host s in {} functional replays (traced pass)", ops.len()),
    );
    rec.metric(
        "fastsim.self_s",
        tracer.self_total("replay.op") as f64 * 1e-9,
        "s",
        "replay time minus hierarchy, stream, image and build time",
    );
    rec.metric("compress.lines", lines as f64, "count", "16-word lines classified: line_compress_mask and each scheme's line_mask over every replayed memory image");
    rec.metric(
        "compress.line_ns",
        class_ns as f64 / lines as f64,
        "ns",
        "host ns per line classification",
    );
    rec.metric(
        "compress.compressible_frac",
        compressible as f64 / (lines * LINE_WORDS as u64) as f64,
        "ratio",
        "compressible words over words classified",
    );
    rec.metric(
        "hierarchy.l1_miss_rate",
        l1.miss_rate(),
        "ratio",
        "simulated: L1 demand miss rate over every replay",
    );
    rec.metric(
        "hierarchy.l2_miss_rate",
        l2.miss_rate(),
        "ratio",
        "simulated: L2 demand miss rate over every replay",
    );
    rec.metric(
        "hierarchy.affiliated_hit_frac",
        l1.affiliated_hits as f64 / totals.prefetches_issued.max(1) as f64,
        "ratio",
        "simulated: L1 affiliated hits over prefetches issued",
    );
    rec.metric("hierarchy.prefetch_discard_frac", totals.prefetches_discarded as f64 / totals.prefetches_issued.max(1) as f64, "ratio", "simulated: prefetched words discarded over prefetched words issued, as the hierarchy counts them (words dropped before install count as discarded but not as issued, so the ratio can exceed 1)");
    rec.metric(
        "hierarchy.promotions",
        totals.promotions as f64,
        "count",
        "simulated: affiliated-to-primary promotions",
    );
    rec.metric(
        "hierarchy.parked_lines",
        totals.parked_lines as f64,
        "count",
        "simulated: evicted lines parked in their affiliated location",
    );
    rec.metric(
        "hierarchy.compressibility_evictions",
        totals.compressibility_evictions as f64,
        "count",
        "simulated: affiliated words evicted by a primary word growing incompressible",
    );
    rec.metric(
        "hierarchy.mem_traffic_halfwords",
        totals.memory_traffic_halfwords() as f64,
        "count",
        "simulated: L2-memory bus traffic in half-words",
    );
}

/// Fingerprints every replay for each seed, two seeds at a time.
pub fn record_expectations(seeds: &[u64]) -> String {
    let rows: BTreeMap<u64, Vec<u32>> = crate::par_map(seeds, |&seed| {
        let inputs = setup(seed, None);
        ops(inputs.len())
            .iter()
            .map(|&(i, s)| fingerprint(&replay(&inputs[i], s)))
            .collect()
    })
    .into_iter()
    .zip(seeds)
    .map(|(fps, &s)| (s, fps))
    .collect();
    Expectations::render(
        "replay: fingerprint of each replay's FastStats, HierarchyStats included (FNV-1a of its Debug form, folded to 32 bits).\n\
         Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --record replay",
        &config(),
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_stream_flips_compressibility() {
        let spec = WorkgenSpec::parse(STORE_SPEC).unwrap();
        let trace = SynthSource::new(spec, 1, 20_000).materialize();
        let s = run_functional(&trace, hierarchy(SchemeKind::Cpp).as_mut(), 0);
        assert!(
            s.stores * 3 > s.mem_ops,
            "store-heavy: {} of {}",
            s.stores,
            s.mem_ops
        );
        assert!(s.hierarchy.compressibility_evictions > 0);
        assert!(s.hierarchy.parked_lines > 0);
    }
}
