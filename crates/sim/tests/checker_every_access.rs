//! The §3.3 invariant checker after every access: all 14 benchmarks are
//! replayed through `CppHierarchy<S>` under each compression scheme (CPP,
//! BDI, FPC), and `InvariantChecker` must report nothing after any load or
//! store — not just at the end of a run, where a transient violation that
//! a later access happens to repair would go unseen.

use ccp_cache::CacheSim;
use ccp_cpp::{CppHierarchy, InvariantChecker};
use ccp_schemes::{BdiScheme, CompressionScheme, CppScheme, FpcScheme};
use ccp_trace::{all_benchmarks, Op, Trace};

/// Instructions per benchmark: sized so the debug-profile test stays a few
/// seconds (one check walks every valid line of both levels).
const BUDGET: usize = 2_000;

const SEED: u64 = 1;

/// Replays `bench`'s `trace` through a fresh paper hierarchy under `S`,
/// checking after every access, and returns the accesses replayed. Panics
/// with the first violation and the access that exposed it.
fn replay_checked<S: CompressionScheme>(bench: &str, trace: &Trace) -> u64 {
    let mut h = CppHierarchy::<S>::paper_scheme();
    *h.mem_mut() = trace.initial_mem.clone();
    let mut accesses = 0u64;
    for inst in &trace.insts {
        let (kind, addr) = match inst.op() {
            Op::Load { addr } => {
                h.read_pc(addr, inst.pc);
                ("load", addr)
            }
            Op::Store { addr, value } => {
                h.write_pc(addr, value, inst.pc);
                ("store", addr)
            }
            _ => continue,
        };
        accesses += 1;
        if let Some(v) = InvariantChecker::check(&h).first() {
            panic!(
                "{bench} under {}: after access {accesses} ({kind} {addr:#x}): {v}",
                S::NAME
            );
        }
    }
    accesses
}

fn check_all_benchmarks<S: CompressionScheme>() {
    let mut total = 0;
    for bench in all_benchmarks() {
        total += replay_checked::<S>(&bench.full_name(), &bench.trace(BUDGET, SEED));
    }
    assert!(total > 0, "{}: no accesses replayed", S::NAME);
}

#[test]
fn cpp_scheme_clean_after_every_access() {
    check_all_benchmarks::<CppScheme>();
}

#[test]
fn bdi_scheme_clean_after_every_access() {
    check_all_benchmarks::<BdiScheme>();
}

#[test]
fn fpc_scheme_clean_after_every_access() {
    check_all_benchmarks::<FpcScheme>();
}
