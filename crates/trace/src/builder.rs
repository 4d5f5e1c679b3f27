//! The trace builder: a tiny "assembler + functional simulator" workload
//! generators program against.
//!
//! A generator first lays out its data structures with
//! [`ProgramCtx::init_write`] (untraced setup, like a loader), then emits
//! instructions. Memory-carried values are live during generation — a
//! [`ProgramCtx::load`] returns the value the simulated program would see,
//! so control flow in the generator (pointer chasing, comparisons) follows
//! real data. The snapshot taken at the first emitted instruction becomes
//! the trace's initial image.
//!
//! Dataflow is expressed through handles ([`H`]): every emitter returns a
//! handle to its instruction, which later emitters take as source
//! dependences. Basic-block PCs are managed with [`ProgramCtx::label`] /
//! [`ProgramCtx::at`] so loop bodies reuse PCs and the branch predictor and
//! I-cache see realistic streams.

use crate::{
    Addr, Inst, Op, Trace, Word, LAT_FALU, LAT_FDIV, LAT_FMUL, LAT_IALU, LAT_IDIV, LAT_IMUL,
};
use ccp_mem::MainMemory;

/// A dataflow handle: the producing instruction's index + 1, with 0 meaning
/// "no dependence" (an immediate or a value older than the window). An
/// emitted [`Inst`] stores the distance back to the producer instead, and
/// a handle [`DEP_WINDOW`](crate::DEP_WINDOW) or more instructions old
/// becomes no dependence there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H(pub u32);

impl H {
    /// No dependence.
    pub const NONE: H = H(0);

    /// How many instructions before instruction `index` the producer is;
    /// 0 for [`H::NONE`]. The producer must precede `index`.
    #[inline]
    pub fn back_from(self, index: u64) -> u64 {
        if self.0 == 0 {
            0
        } else {
            index + 1 - u64::from(self.0)
        }
    }
}

/// Base PC for generated code (arbitrary, word-aligned).
const CODE_BASE: u32 = 0x0040_0000;

/// The builder state.
#[derive(Debug)]
pub struct ProgramCtx {
    name: String,
    mem: MainMemory,
    initial: Option<MainMemory>,
    insts: Vec<Inst>,
    pc: u32,
    next_label: u32,
}

impl ProgramCtx {
    /// Creates an empty program named `name`.
    pub fn new(name: &str) -> Self {
        ProgramCtx {
            name: name.to_string(),
            mem: MainMemory::new(),
            initial: None,
            insts: Vec::new(),
            pc: CODE_BASE,
            next_label: 0,
        }
    }

    /// Untraced setup write (heap construction). Must not be called after
    /// the first instruction is emitted.
    pub fn init_write(&mut self, addr: Addr, value: Word) {
        assert!(
            self.initial.is_none(),
            "init_write after trace emission started"
        );
        self.mem.write(addr, value);
    }

    /// Allocates a fresh basic-block label (a PC the generator can jump to
    /// with [`ProgramCtx::at`]). Labels are spaced so blocks of up to 64
    /// instructions never overlap.
    pub fn label(&mut self) -> u32 {
        self.next_label += 1;
        CODE_BASE + self.next_label * 0x100
    }

    /// Continues emission at basic-block `label` (loop heads, call sites).
    pub fn at(&mut self, label: u32) {
        self.pc = label;
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Appends `op`. Inlined into each emitter, where `op` is a constant,
    /// so packing it costs no branch on its kind.
    #[inline(always)]
    fn emit(&mut self, op: Op, d1: H, d2: H) -> H {
        if self.initial.is_none() {
            self.snapshot();
        }
        debug_assert!(d1.0 as usize <= self.insts.len());
        debug_assert!(d2.0 as usize <= self.insts.len());
        let n = self.insts.len() as u64;
        let inst = Inst::new(op, self.pc, [d1.back_from(n), d2.back_from(n)]);
        self.pc = self.pc.wrapping_add(4);
        self.insts.push(inst);
        H(self.insts.len() as u32)
    }

    /// Takes the initial image: memory as the first instruction finds it.
    #[cold]
    fn snapshot(&mut self) {
        self.initial = Some(self.mem.clone());
    }

    /// Emits a 1-cycle integer ALU op.
    pub fn alu(&mut self, d1: H, d2: H) -> H {
        self.emit(Op::IAlu { lat: LAT_IALU }, d1, d2)
    }

    /// Emits an integer multiply.
    pub fn mult(&mut self, d1: H, d2: H) -> H {
        self.emit(Op::IAlu { lat: LAT_IMUL }, d1, d2)
    }

    /// Emits an integer divide.
    pub fn div(&mut self, d1: H, d2: H) -> H {
        self.emit(Op::IAlu { lat: LAT_IDIV }, d1, d2)
    }

    /// Emits an FP add/compare.
    pub fn falu(&mut self, d1: H, d2: H) -> H {
        self.emit(Op::FAlu { lat: LAT_FALU }, d1, d2)
    }

    /// Emits an FP multiply.
    pub fn fmul(&mut self, d1: H, d2: H) -> H {
        self.emit(Op::FAlu { lat: LAT_FMUL }, d1, d2)
    }

    /// Emits an FP divide.
    pub fn fdiv(&mut self, d1: H, d2: H) -> H {
        self.emit(Op::FAlu { lat: LAT_FDIV }, d1, d2)
    }

    /// Emits a load from `addr` whose address depends on `addr_dep` (the
    /// pointer-chase edge). Returns the handle and the loaded value.
    pub fn load(&mut self, addr: Addr, addr_dep: H) -> (H, Word) {
        let v = self.mem.read(addr);
        let h = self.emit(Op::Load { addr }, addr_dep, H::NONE);
        (h, v)
    }

    /// Emits a store of `value` to `addr`, with address and value
    /// dependences.
    pub fn store(&mut self, addr: Addr, value: Word, addr_dep: H, val_dep: H) -> H {
        let h = self.emit(Op::Store { addr, value }, addr_dep, val_dep);
        self.mem.write(addr, value);
        h
    }

    /// Emits a conditional branch that resolves `taken`, depending on `dep`
    /// (typically the comparison feeding it).
    pub fn branch(&mut self, taken: bool, dep: H) -> H {
        self.emit(Op::Branch { taken }, dep, H::NONE)
    }

    /// Finishes the program, producing the trace (snapshotting the initial
    /// image if nothing was emitted).
    pub fn finish(mut self) -> Trace {
        let initial_mem = self.initial.take().unwrap_or_else(|| self.mem.clone());
        // The records' growth left up to twice their size allocated.
        self.insts.shrink_to_fit();
        Trace {
            name: self.name,
            initial_mem,
            insts: self.insts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_image_snapshots_before_first_inst() {
        let mut ctx = ProgramCtx::new("t");
        ctx.init_write(0x100, 1);
        ctx.store(0x100, 2, H::NONE, H::NONE);
        let t = ctx.finish();
        assert_eq!(t.initial_mem.read(0x100), 1, "traced store not in image");
    }

    #[test]
    #[should_panic(expected = "after trace emission")]
    fn init_write_after_emit_panics() {
        let mut ctx = ProgramCtx::new("t");
        ctx.alu(H::NONE, H::NONE);
        ctx.init_write(0x100, 1);
    }

    #[test]
    fn load_returns_functional_value() {
        let mut ctx = ProgramCtx::new("t");
        ctx.init_write(0x200, 42);
        let (_, v) = ctx.load(0x200, H::NONE);
        assert_eq!(v, 42);
        ctx.store(0x200, 43, H::NONE, H::NONE);
        let (_, v2) = ctx.load(0x200, H::NONE);
        assert_eq!(v2, 43, "loads see traced stores during generation");
    }

    #[test]
    fn handles_are_one_based_indices() {
        let mut ctx = ProgramCtx::new("t");
        let a = ctx.alu(H::NONE, H::NONE);
        let b = ctx.alu(a, H::NONE);
        assert_eq!(a, H(1));
        assert_eq!(b, H(2));
        let t = ctx.finish();
        assert_eq!(t.insts[1].deps(), [1, 0], "one instruction back");
    }

    #[test]
    fn handles_older_than_the_window_become_no_dependence() {
        let mut ctx = ProgramCtx::new("t");
        let first = ctx.div(H::NONE, H::NONE);
        let second = ctx.div(H::NONE, H::NONE);
        for _ in 2..crate::DEP_WINDOW {
            ctx.alu(H::NONE, H::NONE);
        }
        ctx.alu(second, first);
        let t = ctx.finish();
        assert_eq!(t.insts[4096].deps(), [4095, 0]);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn pcs_advance_and_labels_jump() {
        let mut ctx = ProgramCtx::new("t");
        ctx.alu(H::NONE, H::NONE);
        ctx.alu(H::NONE, H::NONE);
        let head = ctx.label();
        for _ in 0..2 {
            ctx.at(head);
            ctx.alu(H::NONE, H::NONE);
            ctx.branch(true, H::NONE);
        }
        let t = ctx.finish();
        assert_eq!(t.insts[1].pc, t.insts[0].pc + 4);
        assert_eq!(t.insts[2].pc, t.insts[4].pc, "loop body reuses PCs");
        assert_eq!(t.insts[3].pc, t.insts[5].pc);
    }

    #[test]
    fn finish_without_emission_keeps_setup_image() {
        let mut ctx = ProgramCtx::new("t");
        ctx.init_write(0x300, 9);
        let t = ctx.finish();
        assert_eq!(t.initial_mem.read(0x300), 9);
        assert!(t.is_empty());
    }

    #[test]
    fn trace_validates() {
        let mut ctx = ProgramCtx::new("t");
        let (a, _) = ctx.load(0x400, H::NONE);
        let b = ctx.mult(a, a);
        ctx.store(0x404, 1, a, b);
        ctx.fdiv(b, H::NONE);
        assert!(ctx.finish().validate().is_ok());
    }
}
