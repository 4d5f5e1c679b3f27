#![warn(missing_docs)]

//! Out-of-order 4-issue superscalar timing model in the style of
//! SimpleScalar's `sim-outorder`, configured per the paper's Figure 9:
//! 16-entry IFQ, bimodal branch predictor, 16-entry RUU window, 8-entry
//! LSQ, 4 integer ALUs + 1 mult/div, 4 FP ALUs + 1 FP mult/div, 2 memory
//! ports, 8 KB direct-mapped I-cache (1/10-cycle hit/miss).
//!
//! The pipeline replays any [`ccp_trace::TraceSource`] against any
//! [`ccp_cache::CacheSim`] data-memory hierarchy:
//!
//! * **Fetch** — up to 4 instructions/cycle through the I-cache into the
//!   IFQ; a mispredicted branch (bimod) stalls fetch until the branch
//!   executes plus a redirect penalty (no wrong-path fetch, the standard
//!   trace-driven approximation).
//! * **Dispatch** — in order, 4/cycle, into the RUU (memory ops also take
//!   an LSQ slot).
//! * **Issue** — oldest-first among ready instructions, bounded by
//!   functional-unit counts and 2 memory ports. Loads check the LSQ:
//!   store-to-load forwarding on a word match, stall under an unresolved
//!   same-word store. A load that misses L1 becomes an *outstanding miss*
//!   until its data returns — the window the paper's Figure 15 ready-queue
//!   statistic is measured over.
//! * **Commit** — in order, 4/cycle; stores perform their cache write at
//!   commit (write-allocate, write-back), which is where store traffic and
//!   write misses are accounted.

pub mod bimod;
pub mod gshare;
pub mod icache;
pub mod inorder;

pub use bimod::Bimod;
pub use gshare::{Gshare, Predictor, PredictorKind};
pub use icache::ICache;
pub use inorder::run_inorder;

use ccp_cache::{CacheSim, HierarchyStats, HitSource};
use ccp_trace::{Inst, Op, TraceSource};
use std::ops::{Index, IndexMut};

/// Pipeline configuration (defaults = paper Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions dispatched per cycle.
    pub dispatch_width: u32,
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Instruction fetch queue entries.
    pub ifq_size: usize,
    /// Register update unit (instruction window) entries.
    pub ruu_size: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Integer ALUs.
    pub n_ialu: u32,
    /// Integer multiply/divide units.
    pub n_imuldiv: u32,
    /// FP ALUs.
    pub n_falu: u32,
    /// FP multiply/divide units.
    pub n_fmuldiv: u32,
    /// Cache ports shared by loads and stores.
    pub n_memports: u32,
    /// Branch predictor flavour (the paper uses bimod).
    pub predictor: PredictorKind,
    /// Branch predictor table entries.
    pub bimod_entries: usize,
    /// Front-end refill cycles after a mispredicted branch resolves.
    pub mispredict_penalty: u32,
    /// Miss-status holding registers: maximum outstanding load misses. A
    /// load predicted (via [`ccp_cache::CacheSim::probe_l1`]) to miss
    /// cannot issue while every MSHR is busy.
    pub mshrs: usize,
}

impl PipelineConfig {
    /// The paper's baseline processor.
    pub fn paper() -> Self {
        PipelineConfig {
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            ifq_size: 16,
            ruu_size: 16,
            lsq_size: 8,
            n_ialu: 4,
            n_imuldiv: 1,
            n_falu: 4,
            n_fmuldiv: 1,
            n_memports: 2,
            predictor: PredictorKind::Bimod,
            bimod_entries: 2048,
            mispredict_penalty: 3,
            mshrs: 8,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper()
    }
}

ccp_mem::counters! {
    /// Attribution of every execution cycle to its dominant bottleneck — a
    /// standard "CPI stack". A cycle counts as [`CpiStack::busy`] when at least
    /// one instruction commits; otherwise it is attributed by the state of the
    /// oldest in-flight instruction (memory wait, core wait) or the empty
    /// front end.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct CpiStack {
        /// Cycles with ≥1 commit.
        pub busy: u64,
        /// No commit, window empty: fetch starved (I-miss or mispredict).
        pub frontend: u64,
        /// No commit, oldest instruction is a load/store waiting on the data
        /// memory hierarchy.
        pub memory: u64,
        /// No commit, oldest instruction waiting on operands or functional
        /// units.
        pub core: u64,
    }

    /// Where demand loads were satisfied (a latency histogram keyed by hit
    /// source rather than raw cycles, since sources map 1:1 to latencies).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct LoadSources {
        /// L1 primary hits (1 cycle).
        pub l1: u64,
        /// CPP affiliated-location hits (2 cycles).
        pub l1_affiliated: u64,
        /// BCP/SPT prefetch-buffer hits (1 cycle).
        pub l1_prefetch: u64,
        /// L2 hits (10 cycles).
        pub l2: u64,
        /// Memory accesses (100 cycles).
        pub memory: u64,
    }

    /// Results of one pipeline run.
    #[derive(Debug, Default, Clone)]
    pub struct RunStats {
        /// Total execution cycles.
        pub cycles: u64,
        /// Committed instructions.
        pub instructions: u64,
        /// Committed loads.
        pub loads: u64,
        /// Committed stores.
        pub stores: u64,
        /// Loads satisfied by store-to-load forwarding (no cache access).
        pub forwarded_loads: u64,
        /// Mispredicted branches.
        pub branch_mispredicts: u64,
        /// Committed branches.
        pub branches: u64,
        /// I-cache misses.
        pub icache_misses: u64,
        /// Cycles during which at least one load miss was outstanding.
        pub miss_cycles: u64,
        /// Σ ready-queue length over those cycles (Figure 15's numerator).
        pub ready_len_sum: u64,
        /// Per-cycle bottleneck attribution.
        pub cpi_stack: CpiStack,
        /// Demand-load hit-source histogram.
        pub load_sources: LoadSources,
        /// Final data-hierarchy statistics.
        pub hierarchy: HierarchyStats,
    }
}

impl CpiStack {
    /// Total attributed cycles.
    pub fn total(&self) -> u64 {
        self.busy + self.frontend + self.memory + self.core
    }

    /// Fraction of cycles attributed to the data-memory hierarchy.
    pub fn memory_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.memory as f64 / self.total() as f64
        }
    }
}

impl LoadSources {
    /// Total demand loads that reached the hierarchy (excludes forwarded).
    pub fn total(&self) -> u64 {
        self.l1 + self.l1_affiliated + self.l1_prefetch + self.l2 + self.memory
    }

    pub(crate) fn record(&mut self, source: HitSource) {
        match source {
            HitSource::L1 => self.l1 += 1,
            HitSource::L1Affiliated => self.l1_affiliated += 1,
            HitSource::L1PrefetchBuffer => self.l1_prefetch += 1,
            HitSource::L2 => self.l2 += 1,
            HitSource::Memory => self.memory += 1,
        }
    }
}

impl RunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Average ready-queue length during outstanding-miss cycles
    /// (paper Figure 15).
    pub fn avg_ready_in_miss_cycles(&self) -> f64 {
        if self.miss_cycles == 0 {
            0.0
        } else {
            self.ready_len_sum as f64 / self.miss_cycles as f64
        }
    }
}

/// One in-flight instruction in the RUU.
#[derive(Debug, Clone, Copy)]
struct RuuEntry {
    /// Trace index.
    idx: u64,
    op: Op,
    dep1: u32,
    dep2: u32,
    issued: bool,
    /// Cycle the result is available; `u64::MAX` until scheduled.
    done: u64,
    /// Cycle both operands are available; `u64::MAX` until every producer
    /// still in the window has issued (see [`operands_ready_at`]).
    ready_at: u64,
}

impl RuuEntry {
    /// The entry for stream instruction `idx` as it enters the RUU.
    fn dispatched(idx: u64, inst: Inst) -> Self {
        RuuEntry {
            idx,
            op: inst.op,
            dep1: inst.dep1,
            dep2: inst.dep2,
            issued: false,
            done: u64::MAX,
            ready_at: u64::MAX,
        }
    }
}

/// Seeds `cache`'s memory from `source` and runs its stream to completion
/// — the one out-of-order entry point. A materialized [`ccp_trace::Trace`]
/// is a source too; for a streaming one, memory use is bounded by the
/// in-flight window (IFQ + RUU), not the stream length.
pub fn run_source(
    source: &dyn TraceSource,
    cache: &mut dyn CacheSim,
    cfg: &PipelineConfig,
) -> RunStats {
    *cache.mem_mut() = source.initial_mem();
    Pipeline::new(*cfg).run_stream(source.stream(), cache)
}

/// The pipeline machine. Create one per run (predictor and I-cache state
/// are per-run, matching the paper's independent benchmark executions).
#[derive(Debug)]
pub struct Pipeline {
    cfg: PipelineConfig,
    bimod: Predictor,
    icache: ICache,
}

impl Pipeline {
    /// Creates a pipeline with fresh predictor and I-cache state.
    pub fn new(cfg: PipelineConfig) -> Self {
        Pipeline {
            bimod: Predictor::new(cfg.predictor, cfg.bimod_entries),
            icache: ICache::paper(),
            cfg,
        }
    }

    /// Runs an instruction stream against `cache` cycle by cycle until it
    /// drains — the core behind [`run_source`]. A cycle in
    /// which no stage moves is followed by a jump to the cycle before the
    /// next pending event, its skipped cycles credited in bulk, so memory
    /// stalls cost host time per event rather than per cycle. Instructions
    /// are pulled from `stream` on demand and buffered only while in
    /// flight (a sliding window bounded by the IFQ + RUU sizes), so a
    /// 100M-instruction synthetic stream never materializes. The cache's
    /// memory must already hold the stream's initial image (see
    /// [`run_source`]).
    pub fn run_stream<I: IntoIterator<Item = Inst>>(
        &mut self,
        stream: I,
        cache: &mut dyn CacheSim,
    ) -> RunStats {
        self.run_cycles::<true, I>(stream, cache)
    }

    /// The cycle loop behind [`Pipeline::run_stream`]. `SKIP_IDLE = false`
    /// steps through every idle cycle instead of jumping over them — the
    /// oracle the tests hold the event-driven run to.
    fn run_cycles<const SKIP_IDLE: bool, I: IntoIterator<Item = Inst>>(
        &mut self,
        stream: I,
        cache: &mut dyn CacheSim,
    ) -> RunStats {
        let mut stream = stream.into_iter();
        let cfg = self.cfg;
        let l1_hit_lat = cache.latencies().l1_hit;

        // Sliding buffer over the in-flight slice of the stream:
        // `window[0]` is the oldest uncommitted instruction, at stream
        // index `win_base`. It holds the RUU, the IFQ and at most one
        // instruction waiting to be fetched.
        let mut window: Ring<Inst> = Ring::new(cfg.ifq_size + cfg.ruu_size + 1, NOP);
        let mut win_base: u64 = 0;
        let mut stream_done = false;

        let mut stats = RunStats::default();

        // Fetch state.
        let mut next_fetch: u64 = 0;
        let mut fetch_stall_until: u64 = 0;
        let mut waiting_branch: Option<u64> = None; // trace idx of unresolved mispredict
        let mut cur_iblock: u32 = u32::MAX;

        // IFQ: (trace idx, available-for-dispatch cycle).
        let mut ifq: Ring<(u64, u64)> = Ring::new(cfg.ifq_size, (0, 0));

        // RUU window; the front entry is the oldest in-flight instruction.
        let mut ruu: Ring<RuuEntry> = Ring::new(cfg.ruu_size, RuuEntry::dispatched(0, NOP));
        // RUU positions whose operands are ready this cycle, oldest first.
        let mut ready: Vec<usize> = Vec::with_capacity(cfg.ruu_size);
        // RUU entries holding a memory op (the LSQ's occupancy).
        let mut lsq_used: usize = 0;

        // Outstanding load-miss completion cycles (Figure 15 window).
        let mut outstanding: Vec<u64> = Vec::new();

        let mut now: u64 = 0;
        // Stall watchdog: the in-flight window is bounded, so consecutive
        // commit-free cycles are bounded by window size x worst memory
        // latency — orders of magnitude under this. A hang is a simulator
        // bug. (The stream's total length is unknowable up front, so the
        // watchdog is per-commit-gap rather than per-run.)
        let mut last_commit: u64 = 0;
        const WEDGE_CYCLES: u64 = 1_000_000;

        if let Some(i) = stream.next() {
            window.push_back(i);
        } else {
            stream_done = true;
        }
        while !(stream_done && window.is_empty()) {
            now += 1;
            assert!(
                now - last_commit < WEDGE_CYCLES,
                "pipeline wedged at cycle {now}"
            );

            // ---- Commit (in order) ------------------------------------
            let mut committed = 0;
            while committed < cfg.commit_width {
                let Some(front) = ruu.front() else { break };
                if !front.issued || front.done > now {
                    break;
                }
                let e = ruu.pop_front().expect("checked");
                debug_assert_eq!(e.idx, win_base, "in-order commit tracks the window");
                let inst = window
                    .pop_front()
                    .expect("window holds in-flight instructions");
                win_base += 1;
                match e.op {
                    Op::Store { addr, value } => {
                        // The architectural write happens at commit.
                        cache.write_pc(addr, value, inst.pc);
                        stats.stores += 1;
                        lsq_used -= 1;
                    }
                    Op::Load { .. } => {
                        stats.loads += 1;
                        lsq_used -= 1;
                    }
                    Op::Branch { .. } => stats.branches += 1,
                    _ => {}
                }
                stats.instructions += 1;
                committed += 1;
            }

            // CPI-stack attribution for this cycle.
            if committed > 0 {
                last_commit = now;
                stats.cpi_stack.busy += 1;
            } else {
                *stall_bucket(&mut stats.cpi_stack, ruu.front(), now) += 1;
            }

            // ---- Issue (oldest first) ---------------------------------
            outstanding.retain(|&c| c > now);
            let ruu_base = ruu.front().map(|e| e.idx).unwrap_or(next_fetch);

            // Ready-queue census before issuing (Figure 15): the one pass
            // that resolves operand readiness this cycle. It lists the
            // ready entries for the issue loop.
            ready.clear();
            for i in 0..ruu.len() {
                if !ruu[i].issued && operands_ready_at(&mut ruu, i, ruu_base) <= now {
                    ready.push(i);
                }
            }
            let ready_count = ready.len() as u64;
            if !outstanding.is_empty() {
                stats.miss_cycles += 1;
                stats.ready_len_sum += ready_count;
            }

            let mut fu_ialu = cfg.n_ialu;
            let mut fu_imd = cfg.n_imuldiv;
            let mut fu_falu = cfg.n_falu;
            let mut fu_fmd = cfg.n_fmuldiv;
            let mut fu_mem = cfg.n_memports;
            let mut issued = 0;
            // The issue loop walks the census's ready list. A result due
            // this very cycle (a zero-latency op) can wake a younger
            // consumer the census saw waiting, so after such an issue the
            // loop re-resolves every younger entry in order instead.
            let mut next_ready = 0;
            let mut rescan_from = None;
            while issued < cfg.issue_width {
                let i = match rescan_from {
                    None => {
                        let Some(&i) = ready.get(next_ready) else {
                            break;
                        };
                        next_ready += 1;
                        i
                    }
                    Some(ref mut pos) => {
                        let i = *pos;
                        if i >= ruu.len() {
                            break;
                        }
                        *pos += 1;
                        if ruu[i].issued || operands_ready_at(&mut ruu, i, ruu_base) > now {
                            continue;
                        }
                        i
                    }
                };
                let e = ruu[i];
                match e.op {
                    Op::IAlu { lat } => {
                        let unit = if lat <= 1 { &mut fu_ialu } else { &mut fu_imd };
                        if *unit == 0 {
                            continue;
                        }
                        *unit -= 1;
                        ruu[i].issued = true;
                        ruu[i].done = now + u64::from(lat);
                    }
                    Op::FAlu { lat } => {
                        let unit = if lat <= 2 { &mut fu_falu } else { &mut fu_fmd };
                        if *unit == 0 {
                            continue;
                        }
                        *unit -= 1;
                        ruu[i].issued = true;
                        ruu[i].done = now + u64::from(lat);
                    }
                    Op::Branch { .. } => {
                        if fu_ialu == 0 {
                            continue;
                        }
                        fu_ialu -= 1;
                        ruu[i].issued = true;
                        ruu[i].done = now + 1;
                        // A resolved mispredict restarts the front end.
                        if waiting_branch == Some(e.idx) {
                            waiting_branch = None;
                            fetch_stall_until = now + 1 + u64::from(cfg.mispredict_penalty);
                        }
                    }
                    Op::Store { .. } => {
                        if fu_mem == 0 {
                            continue;
                        }
                        fu_mem -= 1;
                        // Address generation + store-buffer entry; the
                        // cache write happens at commit.
                        ruu[i].issued = true;
                        ruu[i].done = now + 1;
                    }
                    Op::Load { addr } => {
                        if fu_mem == 0 {
                            continue;
                        }
                        // LSQ disambiguation against older same-word stores:
                        // forward from an issued store (data ready one cycle
                        // after its result), stall under an unissued one.
                        let mut forward_at = None;
                        let mut blocked = false;
                        for j in (0..i).rev() {
                            if let Op::Store { addr: saddr, .. } = ruu[j].op {
                                if saddr == addr {
                                    if ruu[j].issued {
                                        forward_at = Some(ruu[j].done.max(now) + 1);
                                    } else {
                                        blocked = true;
                                    }
                                    break;
                                }
                            }
                        }
                        if blocked {
                            continue;
                        }
                        // MSHR limit: a load that will leave L1 needs a free
                        // miss-status register.
                        if forward_at.is_none()
                            && outstanding.len() >= cfg.mshrs
                            && !cache.probe_l1(addr)
                        {
                            continue;
                        }
                        fu_mem -= 1;
                        ruu[i].issued = true;
                        if let Some(done) = forward_at {
                            stats.forwarded_loads += 1;
                            ruu[i].done = done;
                        } else {
                            let r = cache.read_pc(addr, window[(e.idx - win_base) as usize].pc);
                            stats.load_sources.record(r.source);
                            ruu[i].done = now + u64::from(r.latency.max(l1_hit_lat));
                            if r.l1_miss() {
                                outstanding.push(ruu[i].done);
                            }
                        }
                    }
                }
                issued += 1;
                if ruu[i].done <= now && rescan_from.is_none() {
                    rescan_from = Some(i + 1);
                }
            }

            // ---- Dispatch (in order, IFQ → RUU/LSQ) -------------------
            let mut dispatched = 0;
            while dispatched < cfg.dispatch_width {
                let Some(&(idx, avail)) = ifq.front() else {
                    break;
                };
                if avail > now || ruu.len() >= cfg.ruu_size {
                    break;
                }
                let inst = window[(idx - win_base) as usize];
                if inst.op.is_mem() {
                    if lsq_used >= cfg.lsq_size {
                        break;
                    }
                    lsq_used += 1;
                }
                ifq.pop_front();
                ruu.push_back(RuuEntry::dispatched(idx, inst));
                dispatched += 1;
            }

            // ---- Fetch -------------------------------------------------
            let mut fetched = 0;
            if now >= fetch_stall_until && waiting_branch.is_none() {
                while fetched < cfg.fetch_width && ifq.len() < cfg.ifq_size {
                    // Pull from the stream until the window covers the
                    // fetch point (or the stream runs dry).
                    while !stream_done && (next_fetch - win_base) as usize >= window.len() {
                        match stream.next() {
                            Some(i) => window.push_back(i),
                            None => stream_done = true,
                        }
                    }
                    let off = (next_fetch - win_base) as usize;
                    if off >= window.len() {
                        break; // stream exhausted
                    }
                    let inst = window[off];
                    let block = inst.pc & !63;
                    if block != cur_iblock {
                        let lat = self.icache.access(inst.pc);
                        cur_iblock = block;
                        if lat > 1 {
                            // Block arrives later; retry the same PC then.
                            fetch_stall_until = now + u64::from(lat);
                            break;
                        }
                    }
                    ifq.push_back((next_fetch, now + 1));
                    next_fetch += 1;
                    fetched += 1;
                    if let Op::Branch { taken } = inst.op {
                        let predicted = self.bimod.predict(inst.pc);
                        self.bimod.update(inst.pc, taken);
                        if predicted != taken {
                            stats.branch_mispredicts += 1;
                            waiting_branch = Some(next_fetch - 1);
                            break;
                        }
                        if taken {
                            // A taken branch ends the fetch block.
                            cur_iblock = u32::MAX;
                            break;
                        }
                    }
                }
            }

            // ---- Time advance ------------------------------------------
            // A cycle in which no stage moved leaves every time test above
            // answering the same until the earliest pending threshold, so
            // the cycles before it are credited in bulk (DESIGN.md §4).
            if SKIP_IDLE && committed == 0 && issued == 0 && dispatched == 0 && fetched == 0 {
                // IFQ entries are available the cycle after their fetch,
                // and this cycle fetched nothing.
                debug_assert!(ifq.front().is_none_or(|&(_, avail)| avail <= now));
                // The earliest pending result: an unissued entry's `done`
                // is `u64::MAX`, and nothing issued or dispatched since the
                // census.
                let mut next = (0..ruu.len())
                    .map(|i| ruu[i].done)
                    .filter(|&done| done > now)
                    .min()
                    .unwrap_or(u64::MAX);
                if fetch_stall_until > now {
                    next = next.min(fetch_stall_until);
                }
                if next != u64::MAX && next > now + 1 {
                    let idle = next - 1 - now;
                    *stall_bucket(&mut stats.cpi_stack, ruu.front(), now) += idle;
                    if !outstanding.is_empty() {
                        stats.miss_cycles += idle;
                        stats.ready_len_sum += idle * ready_count;
                    }
                    now = next - 1;
                }
            }
        }

        stats.cycles = now;
        stats.icache_misses = self.icache.misses();
        stats.hierarchy = *cache.stats();
        stats
    }
}

/// Placeholder filling the unused slots of the window and RUU rings.
const NOP: Inst = Inst {
    op: Op::IAlu { lat: 1 },
    pc: 0,
    dep1: 0,
    dep2: 0,
};

/// A bounded FIFO over a power-of-two buffer indexed by mask: the
/// pipeline's in-flight queues, each sized once per run from the
/// configuration. Index 0 is the front (oldest) element.
struct Ring<T> {
    buf: Box<[T]>,
    mask: usize,
    head: usize,
    len: usize,
}

impl<T: Copy> Ring<T> {
    /// A ring holding up to `capacity` elements; `fill` occupies the
    /// unused slots.
    fn new(capacity: usize, fill: T) -> Self {
        let slots = capacity.max(1).next_power_of_two();
        Ring {
            buf: vec![fill; slots].into_boxed_slice(),
            mask: slots - 1,
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn front(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    fn push_back(&mut self, value: T) {
        assert!(self.len < self.buf.len(), "ring overflow");
        self.buf[(self.head + self.len) & self.mask] = value;
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<T> {
        let value = *self.front()?;
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(value)
    }
}

impl<T> Index<usize> for Ring<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "ring index {i} out of {}", self.len);
        &self.buf[(self.head + i) & self.mask]
    }
}

impl<T> IndexMut<usize> for Ring<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "ring index {i} out of {}", self.len);
        &mut self.buf[(self.head + i) & self.mask]
    }
}

/// The CPI-stack bucket of a cycle in which nothing commits: memory when
/// the oldest instruction is a memory op waiting on the hierarchy, core
/// when it waits on operands or a unit, front end when the window is empty.
fn stall_bucket<'a>(stack: &'a mut CpiStack, head: Option<&RuuEntry>, now: u64) -> &'a mut u64 {
    match head {
        Some(h) if h.op.is_mem() && h.issued && h.done > now => &mut stack.memory,
        Some(_) => &mut stack.core,
        None => &mut stack.frontend,
    }
}

/// The cycle both operands of `ruu[i]` are available, or `u64::MAX` while
/// a producer in the window has not issued. Producers that already
/// committed count as available; a producer precedes its consumer (traces
/// are validated for that), so every other producer is in the window. The
/// answer is cached in the entry once known: a producer's `done` is fixed
/// when it issues, so the cache never goes stale.
#[inline]
fn operands_ready_at(ruu: &mut Ring<RuuEntry>, i: usize, ruu_base: u64) -> u64 {
    let e = ruu[i];
    if e.ready_at != u64::MAX {
        return e.ready_at;
    }
    let mut at = 0;
    for d in [e.dep1, e.dep2] {
        if d == 0 {
            continue;
        }
        let producer = u64::from(d) - 1;
        if producer < ruu_base {
            continue; // already committed
        }
        let off = (producer - ruu_base) as usize;
        if off >= ruu.len() {
            continue; // defensive: treat unknown as ready
        }
        let p = &ruu[off];
        if !p.issued {
            return u64::MAX;
        }
        at = at.max(p.done);
    }
    ruu[i].ready_at = at;
    at
}

#[cfg(test)]
#[path = "../tests/strategies/mod.rs"]
mod strategies;

#[cfg(test)]
mod tests {
    use super::strategies::{config_strategy, dataflow_trace_strategy};
    use super::*;
    use ccp_cache::{BcpHierarchy, CacheSim, DesignKind, TwoLevelCache};
    use ccp_cpp::CppHierarchy;
    use ccp_trace::{ProgramCtx, H};
    use proptest::prelude::*;

    fn bc() -> TwoLevelCache {
        TwoLevelCache::paper(DesignKind::Bc)
    }

    #[test]
    fn independent_alus_overlap() {
        let mut ctx = ProgramCtx::new("t");
        for _ in 0..100 {
            ctx.alu(H::NONE, H::NONE);
        }
        let t = ctx.finish();
        let mut c = bc();
        let s = run_source(&t, &mut c, &PipelineConfig::paper());
        assert_eq!(s.instructions, 100);
        assert!(s.cycles >= 25, "4-wide bound: {}", s.cycles);
        assert!(s.cycles < 100, "independent ALUs should overlap");
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut ctx = ProgramCtx::new("t");
        let mut h = H::NONE;
        for _ in 0..100 {
            h = ctx.alu(h, H::NONE);
        }
        let t = ctx.finish();
        let mut c = bc();
        let s = run_source(&t, &mut c, &PipelineConfig::paper());
        assert!(
            s.cycles >= 100,
            "a dependence chain cannot beat 1 IPC: {}",
            s.cycles
        );
    }

    #[test]
    fn load_latency_appears_in_cycles() {
        // One cold load (100-cycle memory) on the critical path.
        let mut ctx = ProgramCtx::new("t");
        let (h, _) = ctx.load(0x5000, H::NONE);
        let mut d = h;
        for _ in 0..10 {
            d = ctx.alu(d, H::NONE);
        }
        let t = ctx.finish();
        let mut c = bc();
        let s = run_source(&t, &mut c, &PipelineConfig::paper());
        assert!(s.cycles > 100, "memory latency must show: {}", s.cycles);
        assert!(s.miss_cycles >= 90, "outstanding miss window tracked");
    }

    #[test]
    fn cache_hits_are_fast() {
        let mut ctx = ProgramCtx::new("t");
        ctx.load(0x5000, H::NONE); // cold
        for _ in 0..50 {
            ctx.load(0x5004, H::NONE); // same line: hits
        }
        let t = ctx.finish();
        let mut c = bc();
        let s = run_source(&t, &mut c, &PipelineConfig::paper());
        // 1 miss (100) + 50 hits over 2 ports ≈ well under serial misses.
        assert!(s.cycles < 250, "{}", s.cycles);
    }

    #[test]
    fn store_to_load_forwarding_avoids_cache() {
        let mut ctx = ProgramCtx::new("t");
        let v = ctx.alu(H::NONE, H::NONE);
        ctx.store(0x6000, 42, H::NONE, v);
        ctx.load(0x6000, H::NONE);
        let t = ctx.finish();
        let mut c = bc();
        let s = run_source(&t, &mut c, &PipelineConfig::paper());
        assert_eq!(s.forwarded_loads, 1);
        // The load never touched the cache; only the commit-time store did.
        assert_eq!(s.hierarchy.l1.reads, 0);
        assert_eq!(s.hierarchy.l1.writes, 1);
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // Alternating branch = worst case for bimod.
        let build = |flip: bool| {
            let mut ctx = ProgramCtx::new("t");
            let head = ctx.label();
            for i in 0..400 {
                ctx.at(head);
                let c = ctx.alu(H::NONE, H::NONE);
                ctx.branch(flip && i % 2 == 0, c);
            }
            ctx.finish()
        };
        let always = build(false);
        let alternating = build(true);
        let cfg = PipelineConfig::paper();
        let s1 = run_source(&always, &mut bc(), &cfg);
        let s2 = run_source(&alternating, &mut bc(), &cfg);
        assert!(s2.branch_mispredicts > s1.branch_mispredicts + 50);
        assert!(
            s2.cycles > s1.cycles,
            "mispredicts must cost time: {} vs {}",
            s2.cycles,
            s1.cycles
        );
    }

    #[test]
    fn icache_misses_slow_cold_code() {
        // Straight-line code spanning many I-blocks, executed once.
        let mut ctx = ProgramCtx::new("t");
        for _ in 0..400 {
            ctx.alu(H::NONE, H::NONE);
        }
        let t = ctx.finish();
        let s = run_source(&t, &mut bc(), &PipelineConfig::paper());
        // 400 insts × 4 B = 1600 B = 25 blocks ⇒ ~25 I-misses.
        assert!(s.icache_misses >= 20, "{}", s.icache_misses);
        assert!(s.cycles > 250, "I-miss stalls must show: {}", s.cycles);
    }

    #[test]
    fn lsq_blocks_load_under_unresolved_same_word_store() {
        // A slow-valued store to X, then a load of X: the load must wait
        // and then forward, never reading a stale value from the cache.
        let mut ctx = ProgramCtx::new("t");
        ctx.init_write(0x7000, 1);
        let mut d = H::NONE;
        for _ in 0..5 {
            d = ctx.div(d, H::NONE); // slow chain feeding the store value
        }
        ctx.store(0x7000, 99, H::NONE, d);
        ctx.load(0x7000, H::NONE);
        let t = ctx.finish();
        let s = run_source(&t, &mut bc(), &PipelineConfig::paper());
        assert_eq!(s.forwarded_loads, 1, "load forwards once store resolves");
    }

    #[test]
    fn ipc_is_bounded_by_issue_width() {
        let mut ctx = ProgramCtx::new("t");
        let head = ctx.label();
        for _ in 0..2000 {
            ctx.at(head); // loop body: stays I-cache resident
            ctx.alu(H::NONE, H::NONE);
        }
        let t = ctx.finish();
        let s = run_source(&t, &mut bc(), &PipelineConfig::paper());
        assert!(s.ipc() <= 4.0 + 1e-9);
        assert!(
            s.ipc() > 2.0,
            "independent stream should near peak: {}",
            s.ipc()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let b = ccp_trace::benchmark_by_name("health").unwrap();
        let t = b.trace(5000, 3);
        let s1 = run_source(&t, &mut bc(), &PipelineConfig::paper());
        let s2 = run_source(&t, &mut bc(), &PipelineConfig::paper());
        assert_eq!(s1.cycles, s2.cycles);
        assert_eq!(s1.hierarchy, s2.hierarchy);
    }

    #[test]
    fn halved_memory_latency_speeds_up_memory_bound_code() {
        let b = ccp_trace::benchmark_by_name("mcf").unwrap();
        let t = b.trace(20_000, 3);
        let mut c1 = bc();
        let s1 = run_source(&t, &mut c1, &PipelineConfig::paper());
        let mut c2 = bc();
        c2.set_latencies(c2.latencies().halved_miss_penalty());
        let s2 = run_source(&t, &mut c2, &PipelineConfig::paper());
        assert!(
            s2.cycles < s1.cycles,
            "halving miss penalty must help: {} vs {}",
            s2.cycles,
            s1.cycles
        );
    }

    #[test]
    fn cpi_stack_accounts_every_cycle() {
        let b = ccp_trace::benchmark_by_name("mst").unwrap();
        let t = b.trace(8000, 2);
        let s = run_source(&t, &mut bc(), &PipelineConfig::paper());
        assert_eq!(s.cpi_stack.total(), s.cycles, "every cycle attributed");
        assert!(s.cpi_stack.busy > 0);
    }

    #[test]
    fn memory_bound_code_shows_memory_stalls() {
        // Serialized cold loads, 8 KB apart: all memory time.
        let mut ctx = ProgramCtx::new("t");
        let mut d = H::NONE;
        for i in 0..50u32 {
            let (h, _) = ctx.load(0x10_0000 + i * 0x2000, d);
            d = h;
        }
        let t = ctx.finish();
        let s = run_source(&t, &mut bc(), &PipelineConfig::paper());
        assert!(
            s.cpi_stack.memory_fraction() > 0.8,
            "pointer-chase of cold lines is memory bound: {:?}",
            s.cpi_stack
        );
    }

    #[test]
    fn compute_bound_code_shows_core_time() {
        let mut ctx = ProgramCtx::new("t");
        let head = ctx.label();
        let mut d = H::NONE;
        for _ in 0..500 {
            ctx.at(head);
            d = ctx.div(d, H::NONE); // 20-cycle serial divides
        }
        let t = ctx.finish();
        let s = run_source(&t, &mut bc(), &PipelineConfig::paper());
        assert!(
            s.cpi_stack.core > s.cpi_stack.memory,
            "divide chain is core bound: {:?}",
            s.cpi_stack
        );
        assert!(s.cpi_stack.memory_fraction() < 0.1);
    }

    #[test]
    fn mshr_limit_serializes_misses() {
        // Many independent cold loads: with 8 MSHRs they overlap, with 1
        // they serialize.
        let build = || {
            let mut ctx = ProgramCtx::new("t");
            for i in 0..40u32 {
                ctx.load(0x20_0000 + i * 0x2000, H::NONE);
            }
            ctx.finish()
        };
        let t = build();
        let mut cfg = PipelineConfig::paper();
        let wide = run_source(&t, &mut bc(), &cfg);
        cfg.mshrs = 1;
        let narrow = run_source(&t, &mut bc(), &cfg);
        assert!(
            narrow.cycles > wide.cycles + 100,
            "1 MSHR must serialize independent misses: {} vs {}",
            narrow.cycles,
            wide.cycles
        );
    }

    /// `n` integer ops of latency 0 (the `.ccpt` decoder accepts them),
    /// each depending on the one before, looping over one I-cache block.
    fn zero_latency_chain(n: u32) -> ccp_trace::Trace {
        ccp_trace::Trace {
            name: "zero-latency chain".into(),
            initial_mem: ccp_mem::MainMemory::new(),
            insts: (0..n)
                .map(|i| Inst {
                    op: Op::IAlu { lat: 0 },
                    pc: 0x0040_0000 + 4 * (i % 16),
                    dep1: i,
                    dep2: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn zero_latency_producer_wakes_its_consumer_in_the_same_cycle() {
        // A zero-latency result is ready the cycle its producer issues, so
        // after the one cold I-miss the chain issues 4 per cycle, as fast
        // as it is fetched. Waking each consumer a cycle late would take
        // 113 cycles instead.
        let t = zero_latency_chain(100);
        let s = run_source(&t, &mut bc(), &PipelineConfig::paper());
        assert_eq!(s.instructions, 100);
        assert_eq!(s.cycles, 38);
    }

    #[test]
    fn odd_queue_sizes_keep_exact_cycles() {
        // Queue sizes that are not powers of two wrap the in-flight
        // buffers at every occupancy.
        let mut cfg = PipelineConfig::paper();
        cfg.ruu_size = 3;
        cfg.ifq_size = 5;
        cfg.lsq_size = 2;
        let chain = run_source(&zero_latency_chain(100), &mut bc(), &cfg);
        assert_eq!(chain.cycles, 80);

        // Same-word stores and loads, so the LSQ search runs across the
        // wrap point too.
        let mut ctx = ProgramCtx::new("t");
        let head = ctx.label();
        let mut d = H::NONE;
        for i in 0..200u32 {
            ctx.at(head);
            d = ctx.alu(d, H::NONE);
            let addr = 0x8000 + (i % 3) * 4;
            ctx.store(addr, i, H::NONE, d);
            d = ctx.load(addr, H::NONE).0;
            ctx.branch(i % 5 == 0, d);
        }
        let s = run_source(&ctx.finish(), &mut bc(), &cfg);
        assert_eq!(s.instructions, 800);
        assert_eq!(
            (s.cycles, s.forwarded_loads, s.branch_mispredicts),
            (860, 42, 41)
        );
    }

    /// [`run_source`] stepping through every cycle.
    fn run_source_stepped(
        source: &dyn TraceSource,
        cache: &mut dyn CacheSim,
        cfg: &PipelineConfig,
    ) -> RunStats {
        *cache.mem_mut() = source.initial_mem();
        Pipeline::new(*cfg).run_cycles::<false, _>(source.stream(), cache)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Jumping over idle cycles changes no counter: on any machine,
        /// program (zero-latency ops included) and design, the event-driven
        /// run and the one that steps every cycle report the same stats.
        #[test]
        fn event_skip_is_invisible(trace in dataflow_trace_strategy(), cfg in config_strategy()) {
            let designs: [fn() -> Box<dyn CacheSim>; 4] = [
                || Box::new(TwoLevelCache::paper(DesignKind::Bc)),
                || Box::new(TwoLevelCache::paper(DesignKind::Hac)),
                || Box::new(BcpHierarchy::paper()),
                || Box::new(CppHierarchy::paper()),
            ];
            for design in designs {
                let skipped = run_source(&trace, design().as_mut(), &cfg);
                let stepped = run_source_stepped(&trace, design().as_mut(), &cfg);
                prop_assert_eq!(format!("{skipped:?}"), format!("{stepped:?}"));
            }
        }
    }

    #[test]
    fn all_benchmarks_run_to_completion_on_all_designs() {
        let cfg = PipelineConfig::paper();
        for b in ccp_trace::all_benchmarks() {
            let t = b.trace(3000, 5);
            let designs: Vec<Box<dyn CacheSim>> = vec![
                Box::new(TwoLevelCache::paper(DesignKind::Bc)),
                Box::new(BcpHierarchy::paper()),
                Box::new(CppHierarchy::paper()),
            ];
            for mut d in designs {
                let name = d.name();
                let s = run_source(&t, d.as_mut(), &cfg);
                assert_eq!(
                    s.instructions,
                    t.len() as u64,
                    "{} on {}",
                    b.full_name(),
                    name
                );
            }
        }
    }
}
