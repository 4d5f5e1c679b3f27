//! Property tests: every store through the CPP hierarchy (and the
//! baselines, for comparison) reaches memory while the hierarchy maintains
//! every structural invariant, and CPP's fetch
//! traffic must stay at one line of bandwidth per L2 miss. Each level's
//! memo of line masks must equal a full scan of memory after every access.

use ccp_cache::{Addr, CacheSim, DesignKind, TwoLevelCache};
use ccp_cpp::{scheme_compress_mask, CppHierarchy, CppLevel, InvariantChecker};
use ccp_schemes::{BdiScheme, CompressionScheme, CppScheme, FpcScheme};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One step of an access program.
#[derive(Debug, Clone)]
enum Op {
    Read(u32),
    Write(u32, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A footprint a bit over the L1 size with extra aliasing bits so that
    // conflicts, evictions, parking, and promotion all fire.
    let addr = (0u32..0x6000).prop_map(|a| 0x10_0000 + (a & !3));
    let value = prop_oneof![
        4 => 0u32..0x4000,                         // small → compressible
        1 => any::<u32>(),                           // arbitrary
        2 => (0u32..0x6000).prop_map(|a| 0x10_0000 + a), // heap pointer
    ];
    prop_oneof![
        2 => addr.clone().prop_map(Op::Read),
        1 => (addr, value).prop_map(|(a, v)| Op::Write(a, v)),
    ]
}

fn run_against_golden(c: &mut dyn CacheSim, ops: &[Op]) {
    let mut golden = std::collections::BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Read(a) => {
                let expect = golden.get(&a).copied().unwrap_or(0);
                c.read(a);
                let got = c.mem().read(a);
                assert_eq!(got, expect, "{} diverged at op {i}: read {a:#x}", c.name());
            }
            Op::Write(a, v) => {
                c.write(a, v);
                golden.insert(a, v);
            }
        }
    }
}

/// Values on both sides of every scheme's compressible boundary: the 15-bit
/// immediates of CPP and BDI, FPC's 13-bit range and repeated bytes, deltas
/// off a shared incompressible base (BDI) and same-chunk heap pointers (CPP).
fn boundary_value() -> impl Strategy<Value = u32> {
    const EDGES: [u32; 10] = [
        0x0FFF,
        0x1000,
        0x3FFF,
        0x4000,
        0xFFFF_F000,
        0xFFFF_EFFF,
        0xFFFF_C000,
        0xFFFF_BFFF,
        0x4141_4141,
        0x4141_4142,
    ];
    prop_oneof![
        3 => (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
        3 => (0u32..0x8000).prop_map(|d| 0x7000_0000 + d),
        1 => (0u32..0x6000).prop_map(|a| 0x10_0000 + a),
        1 => any::<u32>(),
    ]
}

/// Accesses over a footprint that aliases in both levels (four 64 KB
/// strides), half of them to word 0 of an L1 line — every other one also
/// word 0 of an L2 line — so stores keep moving BDI's base word.
fn memo_op_strategy() -> impl Strategy<Value = Op> {
    let addr = (0u32..0x60, 0u32..4, 0u32..32).prop_map(|(line, alias, w)| {
        let word = w.saturating_sub(16);
        0x10_0000 + alias * 0x1_0000 + line * 64 + word * 4
    });
    prop_oneof![
        1 => addr.clone().prop_map(Op::Read),
        1 => (addr, boundary_value()).prop_map(|(a, v)| Op::Write(a, v)),
    ]
}

fn line_bases<S: CompressionScheme>(level: &CppLevel<S>) -> BTreeSet<Addr> {
    level.valid_lines().into_iter().map(|(_, b)| b).collect()
}

/// Runs `ops` under scheme `S`, checking after every access that each
/// level's memoized masks of the touched line, its pair and every line the
/// access evicted equal a full scan, and that the §3.3 invariants hold.
/// Returns how many memoized masks it compared.
fn run_checking_memo<S: CompressionScheme>(ops: &[Op]) -> usize {
    let mut h = CppHierarchy::<S>::paper_scheme();
    let mut compared = 0;
    for (i, op) in ops.iter().enumerate() {
        let before = [line_bases(h.l1_level()), line_bases(h.l2_level())];
        let addr = match *op {
            Op::Read(a) => {
                h.read(a);
                a
            }
            Op::Write(a, v) => {
                h.write(a, v);
                a
            }
        };
        for (level, before) in [h.l1_level(), h.l2_level()].into_iter().zip(before) {
            let base = level.geometry().line_base(addr);
            let after = line_bases(level);
            let evicted = before.difference(&after).copied();
            let lines = [base, level.pair_base(base)].into_iter().chain(evicted);
            for line in lines.flat_map(|b| [b, level.pair_base(b)]) {
                if let Some(m) = level.memoized_mask(line) {
                    let scan = scheme_compress_mask::<S>(h.mem(), line, level.words());
                    assert_eq!(
                        m,
                        scan,
                        "{} memo of {line:#x} stale after op {i} {op:?}",
                        S::NAME
                    );
                    compared += 1;
                }
            }
        }
        if let Err(e) = InvariantChecker::assert_clean(&h) {
            panic!("{} after op {i} {op:?}: {e}", S::NAME);
        }
    }
    compared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The memo stays exact under every scheme while stores rewrite base
    /// words and flip words across the compressible boundary.
    #[test]
    fn memo_matches_full_scan(ops in prop::collection::vec(memo_op_strategy(), 1..250)) {
        let compared = run_checking_memo::<CppScheme>(&ops)
            + run_checking_memo::<BdiScheme>(&ops)
            + run_checking_memo::<FpcScheme>(&ops);
        prop_assert!(compared > 0, "no memoized mask was compared");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CPP behaves as a coherent memory and keeps its invariants.
    #[test]
    fn cpp_coherent_and_invariant(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut c = CppHierarchy::paper();
        run_against_golden(&mut c, &ops);
        prop_assert!(c.check_invariants().is_ok(), "{:?}", c.check_invariants());
    }

    /// CPP never spends more than one L2-line of fetch bandwidth per L2
    /// fetch transaction (the paper's "no traffic increase" claim), and BCC
    /// never exceeds BC's traffic on the same program.
    #[test]
    fn traffic_bounds(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut cpp = CppHierarchy::paper();
        let mut bc = TwoLevelCache::paper(DesignKind::Bc);
        let mut bcc = TwoLevelCache::paper(DesignKind::Bcc);
        for d in [&mut cpp as &mut dyn CacheSim, &mut bc, &mut bcc] {
            run_against_golden(d, &ops);
        }
        let s = cpp.stats().mem_bus;
        if s.in_transactions > 0 {
            prop_assert_eq!(
                s.in_halfwords,
                s.in_transactions * 64,
                "CPP fetches exactly one 32-word line per transaction"
            );
        }
        prop_assert!(
            bcc.stats().mem_bus.total_halfwords() <= bc.stats().mem_bus.total_halfwords(),
            "bus compression can only reduce traffic"
        );
        // Identical timing metadata between BC and BCC: same miss counts.
        prop_assert_eq!(bcc.stats().l1.misses(), bc.stats().l1.misses());
        prop_assert_eq!(bcc.stats().l2.misses(), bc.stats().l2.misses());
    }

    /// BCC timing equals BC timing access-by-access (paper §4.1: "BC and
    /// BCC have the same performance").
    #[test]
    fn bcc_timing_equals_bc(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut bc = TwoLevelCache::paper(DesignKind::Bc);
        let mut bcc = TwoLevelCache::paper(DesignKind::Bcc);
        for op in &ops {
            let (a, b) = match *op {
                Op::Read(a) => (bc.read(a), bcc.read(a)),
                Op::Write(a, v) => (bc.write(a, v), bcc.write(a, v)),
            };
            prop_assert_eq!(a.latency, b.latency);
            prop_assert_eq!(a.source, b.source);
        }
    }
}
