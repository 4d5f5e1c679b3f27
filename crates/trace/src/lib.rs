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

//! Synthetic workload substrate: an execution-trace ISA and fourteen
//! benchmark generators standing in for the paper's Olden / SPECint95 /
//! SPECint2000 programs.
//!
//! The paper ran real binaries under SimpleScalar. We have neither the
//! binaries nor their inputs, so each benchmark is re-created as a
//! *generator*: a small program that builds genuine data structures (lists,
//! trees, tries, graphs, hash tables) in a simulated heap and then executes
//! its characteristic loops, emitting a trace of instructions with explicit
//! register dataflow. Addresses and stored values are **real** — pointers
//! point at actual allocations, counters hold actual counts — so the
//! compression scheme sees exactly the value behaviour the paper exploits
//! (shared 17-bit pointer prefixes from bump allocation, small scalar
//! fields, incompressible payloads), and stores flip words between
//! compressible and incompressible at simulation time just as they did at
//! generation time.
//!
//! See `DESIGN.md` §5 for the substitution rationale per benchmark.

pub mod builder;
pub mod source;
pub mod workloads;

pub use builder::{ProgramCtx, H};
pub use source::{profile_source_values, BenchSource, TraceSource};
pub use workloads::{all_benchmarks, benchmark_by_name, Benchmark, Suite};

use ccp_mem::MainMemory;

/// A 32-bit machine word.
pub type Word = u32;

/// A 32-bit byte address.
pub type Addr = u32;

/// Latency, in cycles, of an integer ALU op.
pub const LAT_IALU: u8 = 1;
/// Latency of an integer multiply.
pub const LAT_IMUL: u8 = 3;
/// Latency of an integer divide.
pub const LAT_IDIV: u8 = 20;
/// Latency of an FP add/compare.
pub const LAT_FALU: u8 = 2;
/// Latency of an FP multiply.
pub const LAT_FMUL: u8 = 4;
/// Latency of an FP divide.
pub const LAT_FDIV: u8 = 12;

/// One instruction of the synthetic RISC trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Integer ALU operation with the given latency (1 = add/logic,
    /// 3 = multiply, 20 = divide).
    IAlu {
        /// Execution latency in cycles.
        lat: u8,
    },
    /// Floating-point operation (dispatched to the FP unit pool).
    FAlu {
        /// Execution latency in cycles.
        lat: u8,
    },
    /// Word load from `addr`.
    Load {
        /// Word-aligned effective address.
        addr: Addr,
    },
    /// Word store of `value` to `addr`.
    Store {
        /// Word-aligned effective address.
        addr: Addr,
        /// The stored word.
        value: Word,
    },
    /// Conditional branch with its resolved direction.
    Branch {
        /// The branch's actual outcome.
        taken: bool,
    },
}

impl Op {
    /// `true` for loads and stores.
    pub fn is_mem(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }
}

/// How far back a dependence may reach: an [`Inst`] names producers 1 to
/// `DEP_WINDOW - 1` instructions before it, and drops a dependence that
/// reaches farther. No timing model can see one: the out-of-order window
/// holds at most 62 instructions, and the in-order core keeps the results
/// of the last `DEP_WINDOW` instructions only.
pub const DEP_WINDOW: u64 = 4096;

/// One trace instruction, packed into 16 bytes: operation, fetch PC, and
/// up to two dataflow dependences, each a distance back to its producer.
///
/// `head` holds the op kind in bits 0–2 and the two 12-bit distances in
/// bits 3–14 and 15–26; a distance of 0 is no dependence. `a` holds the
/// address, the latency or the taken flag, and `b` a store's value.
/// [`Inst::op`] rebuilds the [`Op`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    head: u32,
    /// The instruction's fetch address (basic-block PCs repeat across loop
    /// iterations, so the branch predictor and I-cache behave realistically).
    pub pc: u32,
    a: u32,
    b: u32,
}

const _: () = assert!(std::mem::size_of::<Inst>() == 16);

const KIND_IALU: u32 = 0;
const KIND_FALU: u32 = 1;
const KIND_LOAD: u32 = 2;
const KIND_STORE: u32 = 3;
const KIND_BRANCH: u32 = 4;
const DEP_BITS: u32 = 12;
const DEP_MASK: u32 = (1 << DEP_BITS) - 1;
const _: () = assert!(DEP_WINDOW == 1 << DEP_BITS);

impl Inst {
    /// Packs `op` at `pc` whose sources are produced `deps` instructions
    /// earlier, 0 meaning none. A distance of [`DEP_WINDOW`] or more is
    /// dropped.
    #[inline]
    pub fn new(op: Op, pc: u32, deps: [u64; 2]) -> Inst {
        let (kind, a, b) = match op {
            Op::IAlu { lat } => (KIND_IALU, u32::from(lat), 0),
            Op::FAlu { lat } => (KIND_FALU, u32::from(lat), 0),
            Op::Load { addr } => (KIND_LOAD, addr, 0),
            Op::Store { addr, value } => (KIND_STORE, addr, value),
            Op::Branch { taken } => (KIND_BRANCH, u32::from(taken), 0),
        };
        let dist = |d: u64| if d < DEP_WINDOW { d as u32 } else { 0 };
        Inst {
            head: kind | dist(deps[0]) << 3 | dist(deps[1]) << (3 + DEP_BITS),
            pc,
            a,
            b,
        }
    }

    /// The operation. An if-chain in order of frequency rather than a
    /// `match`, which compiles to a jump table whose indirect branch the
    /// hot loops mispredict on a mixed stream (DESIGN.md §4, "Trace
    /// records are 16 bytes").
    #[inline]
    pub fn op(&self) -> Op {
        let k = self.head & 7;
        if k == KIND_IALU {
            Op::IAlu { lat: self.a as u8 }
        } else if k == KIND_LOAD {
            Op::Load { addr: self.a }
        } else if k == KIND_BRANCH {
            Op::Branch { taken: self.a != 0 }
        } else if k == KIND_STORE {
            Op::Store {
                addr: self.a,
                value: self.b,
            }
        } else {
            Op::FAlu { lat: self.a as u8 }
        }
    }

    /// How many instructions before this one each source's producer is,
    /// 0 for none; each is below [`DEP_WINDOW`].
    #[inline]
    pub fn deps(&self) -> [u32; 2] {
        [
            self.head >> 3 & DEP_MASK,
            self.head >> (3 + DEP_BITS) & DEP_MASK,
        ]
    }
}

impl std::fmt::Debug for Inst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inst")
            .field("op", &self.op())
            .field("pc", &self.pc)
            .field("deps", &self.deps())
            .finish()
    }
}

/// A complete workload trace: the initial memory image plus the
/// instruction stream. Replaying the stream against a hierarchy seeded with
/// `initial_mem` reproduces the generation-time values exactly.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Benchmark name (paper spelling, e.g. `"olden.health"`).
    pub name: String,
    /// Memory contents before the first traced instruction.
    pub initial_mem: MainMemory,
    /// The instruction stream.
    pub insts: Vec<Inst>,
}

/// Instruction-mix summary of a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceMix {
    /// Integer ALU ops.
    pub ialu: u64,
    /// FP ops.
    pub falu: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Branches.
    pub branches: u64,
}

impl TraceMix {
    /// Total instruction count.
    pub fn total(&self) -> u64 {
        self.ialu + self.falu + self.loads + self.stores + self.branches
    }
}

impl Trace {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Bytes the materialized trace holds: its instruction records and the
    /// 4 KB pages of its initial image.
    pub fn footprint_bytes(&self) -> u64 {
        let records = self.insts.len() * std::mem::size_of::<Inst>();
        (records + self.initial_mem.page_numbers().len() * 4096) as u64
    }

    /// Validates internal consistency: no dependence reaches before the
    /// first instruction, and word accesses are aligned. Returns the first
    /// problem.
    pub fn validate(&self) -> ccp_errors::SimResult<()> {
        use ccp_errors::SimError;
        for (n, i) in self.insts.iter().enumerate() {
            for d in i.deps() {
                if d as usize > n {
                    return Err(SimError::trace(format!(
                        "inst {n}: dependence {d} back reaches before the first instruction"
                    )));
                }
            }
            match i.op() {
                Op::Load { addr } | Op::Store { addr, .. } if addr & 3 != 0 => {
                    return Err(SimError::trace(format!(
                        "inst {n}: unaligned address {addr:#x}"
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        let mut ctx = ProgramCtx::new("tiny");
        ctx.init_write(0x1000, 7);
        let a = ctx.load(0x1000, H::NONE);
        let b = ctx.alu(a.0, H::NONE);
        ctx.store(0x1004, 99, H::NONE, b);
        ctx.branch(true, b);
        ctx.finish()
    }

    #[test]
    fn mix_counts_each_kind() {
        let t = tiny_trace();
        let m = t.mix();
        assert_eq!(m.loads, 1);
        assert_eq!(m.stores, 1);
        assert_eq!(m.ialu, 1);
        assert_eq!(m.branches, 1);
        assert_eq!(m.total(), 4);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn footprint_counts_records_and_image_pages() {
        let t = tiny_trace();
        assert_eq!(t.initial_mem.page_numbers().len(), 1);
        assert_eq!(t.footprint_bytes(), 4 * 16 + 4096);
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert!(tiny_trace().validate().is_ok());
    }

    #[test]
    fn validate_rejects_dependence_before_the_first_instruction() {
        let mut t = tiny_trace();
        t.insts[1] = Inst::new(Op::IAlu { lat: 1 }, t.insts[1].pc, [2, 0]);
        assert!(t.validate().is_err());
        t.insts[1] = Inst::new(Op::IAlu { lat: 1 }, t.insts[1].pc, [0, 1]);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unaligned_access() {
        let mut t = tiny_trace();
        t.insts[0] = Inst::new(Op::Load { addr: 0x1001 }, t.insts[0].pc, [0, 0]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn inst_packs_every_op_and_distance() {
        let ops = [
            Op::IAlu { lat: LAT_IDIV },
            Op::IAlu { lat: 0 },
            Op::FAlu { lat: LAT_FDIV },
            Op::Load { addr: 0xFFFF_FFFC },
            Op::Store {
                addr: 0x1000,
                value: u32::MAX,
            },
            Op::Branch { taken: true },
            Op::Branch { taken: false },
        ];
        for op in ops {
            for deps in [[0, 0], [1, 4095], [4095, 1], [17, 17]] {
                let i = Inst::new(op, 0x0040_0004, deps);
                assert_eq!(i.op(), op);
                assert_eq!(i.pc, 0x0040_0004);
                assert_eq!(i.deps(), [deps[0] as u32, deps[1] as u32]);
            }
        }
    }

    #[test]
    fn inst_drops_dependences_beyond_the_window() {
        let op = Op::IAlu { lat: 1 };
        let i = Inst::new(op, 0, [DEP_WINDOW, DEP_WINDOW - 1]);
        assert_eq!(i.deps(), [0, 4095]);
        let i = Inst::new(op, 0, [u64::MAX, 1 << 20]);
        assert_eq!(i.deps(), [0, 0]);
    }

    #[test]
    fn profile_values_sees_loads_and_stores() {
        let t = tiny_trace();
        let mut seen = Vec::new();
        profile_source_values(&t, |v, a| seen.push((v, a)));
        assert_eq!(seen, vec![(7, 0x1000), (99, 0x1004)]);
    }

    #[test]
    fn profile_values_replays_stores() {
        let mut ctx = ProgramCtx::new("replay");
        ctx.store(0x2000, 5, H::NONE, H::NONE);
        ctx.load(0x2000, H::NONE);
        let t = ctx.finish();
        let mut vals = Vec::new();
        profile_source_values(&t, |v, _| vals.push(v));
        assert_eq!(vals, vec![5, 5], "load observes the earlier store");
    }

    #[test]
    fn op_is_mem() {
        assert!(Op::Load { addr: 0 }.is_mem());
        assert!(Op::Store { addr: 0, value: 0 }.is_mem());
        assert!(!Op::IAlu { lat: 1 }.is_mem());
        assert!(!Op::Branch { taken: false }.is_mem());
    }
}
