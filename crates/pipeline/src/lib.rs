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
    /// Instruction fetch queue entries. IFQ + RUU + 1 may be at most 64,
    /// the out-of-order run's in-flight ring ([`Pipeline::run_stream`]).
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

/// One in-flight instruction: fetched into the IFQ, then dispatched into
/// the RUU, until it commits. It holds the instruction decoded once, as it
/// enters the ring, so no stage unpacks the trace record again.
#[derive(Debug, Clone, Copy)]
struct Slot {
    op: Op,
    pc: u32,
    /// Stream indices of the producers; `u64::MAX` for none, and a
    /// producer named twice is named once.
    producers: [u64; 2],
    /// First cycle the instruction may dispatch (the cycle after its fetch).
    avail: u64,
    issued: bool,
    /// Producers that had not issued when this entry dispatched and have
    /// not issued since.
    waiting: u8,
    /// Cycle the result is available; `u64::MAX` until issued.
    done: u64,
    /// The latest `done` among the uncommitted producers that have issued;
    /// the cycle both operands are available once `waiting` is 0.
    ready_at: u64,
}

impl Slot {
    /// The slot of `inst`, stream index `i`, as it is pulled from the
    /// stream.
    fn pulled(inst: Inst, i: u64) -> Self {
        let [d1, d2] = inst.deps();
        let producer = |d: u32| {
            if d == 0 {
                u64::MAX
            } else {
                i.wrapping_sub(u64::from(d))
            }
        };
        Slot {
            op: inst.op(),
            pc: inst.pc,
            producers: [producer(d1), if d2 == d1 { u64::MAX } else { producer(d2) }],
            avail: 0,
            issued: false,
            waiting: 0,
            done: u64::MAX,
            ready_at: 0,
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
    /// drains — the core behind [`run_source`]. A cycle in which no stage
    /// moves is followed by a jump to the cycle before the next pending
    /// event, its skipped cycles credited in bulk, so memory stalls cost
    /// host time per event rather than per cycle. Instructions are pulled
    /// from `stream` on demand and held only while in flight, in one ring
    /// of 64 slots, so a 100M-instruction synthetic stream never
    /// materializes; a machine whose IFQ + RUU + 1 exceeds 64 is refused
    /// with a panic before the first cycle. Operand
    /// readiness is pushed, not polled: an issuing instruction wakes the
    /// dispatched consumers waiting on it (DESIGN.md §4). The cache's
    /// memory must already hold the stream's initial image (see
    /// [`run_source`]).
    pub fn run_stream<I: IntoIterator<Item = Inst>>(
        &mut self,
        stream: I,
        cache: &mut dyn CacheSim,
    ) -> RunStats {
        self.run_cycles::<true, I>(stream, cache)
    }

    /// The cycle loop behind [`Pipeline::run_stream`]: commit, issue,
    /// dispatch and fetch over one [`InFlight`] ring. `SKIP_IDLE = false`
    /// steps through every idle cycle instead of jumping over them — the
    /// oracle the tests hold the event-driven run to. Debug builds check
    /// every cycle's ready census against a scan that resolves each RUU
    /// entry from its producers.
    fn run_cycles<const SKIP_IDLE: bool, I: IntoIterator<Item = Inst>>(
        &mut self,
        stream: I,
        cache: &mut dyn CacheSim,
    ) -> RunStats {
        let mut stream = stream.into_iter();
        let cfg = self.cfg;
        let l1_hit_lat = cache.latencies().l1_hit;

        let mut w = InFlight::new(cfg.ifq_size + cfg.ruu_size + 1);
        let mut stream_done = false;

        let mut stats = RunStats::default();

        // Fetch state.
        let mut fetch_stall_until: u64 = 0;
        let mut waiting_branch: Option<u64> = None; // stream idx of unresolved mispredict
        let mut cur_iblock: u32 = u32::MAX;

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
            w.push(i);
        } else {
            stream_done = true;
        }
        while !(stream_done && w.head == w.end) {
            now += 1;
            assert!(
                now - last_commit < WEDGE_CYCLES,
                "pipeline wedged at cycle {now}"
            );

            // ---- Commit (in order) ------------------------------------
            let mut committed = 0;
            while committed < cfg.commit_width && w.head < w.disp {
                let s = *w.slot(w.head);
                if !s.issued || s.done > now {
                    break;
                }
                w.head += 1;
                match s.op {
                    Op::Store { addr, value } => {
                        // The architectural write happens at commit.
                        cache.write_pc(addr, value, s.pc);
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
                *stall_bucket(&mut stats.cpi_stack, w.oldest(), now) += 1;
            }

            // ---- Issue (oldest first) ---------------------------------
            if !outstanding.is_empty() {
                outstanding.retain(|&c| c > now);
            }

            // Ready-queue census before issuing (Figure 15): the ready
            // set, once the pending entries whose operands arrive by now
            // have joined it.
            w.promote(now);
            debug_assert_eq!(
                w.ready_list(),
                w.ready_by_scan(now),
                "census at cycle {now}"
            );
            // Figure 15 counts it only in cycles with a miss outstanding.
            let mut ready_count = 0;
            if !outstanding.is_empty() {
                ready_count = w.ready_count();
                stats.miss_cycles += 1;
                stats.ready_len_sum += ready_count;
            }

            let mut fu_ialu = cfg.n_ialu;
            let mut fu_imd = cfg.n_imuldiv;
            let mut fu_falu = cfg.n_falu;
            let mut fu_fmd = cfg.n_fmuldiv;
            let mut fu_mem = cfg.n_memports;
            let mut issued = 0;
            // The issue loop walks the ready set oldest first, live: a
            // result due this very cycle (a zero-latency op) wakes its
            // younger consumers into the set ahead of the walk, so they
            // issue in the same cycle.
            let mut from = w.head;
            while issued < cfg.issue_width {
                let Some(i) = w.next_ready(from) else {
                    break;
                };
                from = i + 1;
                let done = match w.slot(i).op {
                    Op::IAlu { lat } => {
                        let unit = if lat <= 1 { &mut fu_ialu } else { &mut fu_imd };
                        if *unit == 0 {
                            continue;
                        }
                        *unit -= 1;
                        now + u64::from(lat)
                    }
                    Op::FAlu { lat } => {
                        let unit = if lat <= 2 { &mut fu_falu } else { &mut fu_fmd };
                        if *unit == 0 {
                            continue;
                        }
                        *unit -= 1;
                        now + u64::from(lat)
                    }
                    Op::Branch { .. } => {
                        if fu_ialu == 0 {
                            continue;
                        }
                        fu_ialu -= 1;
                        // A resolved mispredict restarts the front end.
                        if waiting_branch == Some(i) {
                            waiting_branch = None;
                            fetch_stall_until = now + 1 + u64::from(cfg.mispredict_penalty);
                        }
                        now + 1
                    }
                    Op::Store { .. } => {
                        if fu_mem == 0 {
                            continue;
                        }
                        fu_mem -= 1;
                        // Address generation + store-buffer entry; the
                        // cache write happens at commit.
                        now + 1
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
                        for j in (w.head..i).rev() {
                            let s = w.slot(j);
                            if let Op::Store { addr: saddr, .. } = s.op {
                                if saddr == addr {
                                    if s.issued {
                                        forward_at = Some(s.done.max(now) + 1);
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
                        if let Some(done) = forward_at {
                            stats.forwarded_loads += 1;
                            done
                        } else {
                            let r = cache.read_pc(addr, w.slot(i).pc);
                            stats.load_sources.record(r.source);
                            let done = now + u64::from(r.latency.max(l1_hit_lat));
                            if r.l1_miss() {
                                outstanding.push(done);
                            }
                            done
                        }
                    }
                };
                w.issue(i, done, now);
                issued += 1;
            }

            // ---- Dispatch (in order, IFQ → RUU/LSQ) -------------------
            let mut dispatched = 0;
            while dispatched < cfg.dispatch_width && w.disp < w.fetch {
                let s = w.slot(w.disp);
                if s.avail > now || w.disp - w.head >= cfg.ruu_size as u64 {
                    break;
                }
                if s.op.is_mem() {
                    if lsq_used >= cfg.lsq_size {
                        break;
                    }
                    lsq_used += 1;
                }
                w.dispatch(now);
                dispatched += 1;
            }

            // ---- Fetch -------------------------------------------------
            let mut fetched = 0;
            if now >= fetch_stall_until && waiting_branch.is_none() {
                while fetched < cfg.fetch_width && w.fetch - w.disp < cfg.ifq_size as u64 {
                    // Pull from the stream once the fetch point reaches
                    // the end of the ring's contents.
                    if w.fetch == w.end {
                        match if stream_done { None } else { stream.next() } {
                            Some(i) => w.push(i),
                            None => {
                                stream_done = true;
                                break; // stream exhausted
                            }
                        }
                    }
                    let Slot { op, pc, .. } = *w.slot(w.fetch);
                    let block = pc & !63;
                    if block != cur_iblock {
                        let lat = self.icache.access(pc);
                        cur_iblock = block;
                        if lat > 1 {
                            // Block arrives later; retry the same PC then.
                            fetch_stall_until = now + u64::from(lat);
                            break;
                        }
                    }
                    w.slot_mut(w.fetch).avail = now + 1;
                    w.fetch += 1;
                    fetched += 1;
                    if let Op::Branch { taken } = op {
                        let predicted = self.bimod.predict(pc);
                        self.bimod.update(pc, taken);
                        if predicted != taken {
                            stats.branch_mispredicts += 1;
                            waiting_branch = Some(w.fetch - 1);
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
                debug_assert!(w.disp == w.fetch || w.slot(w.disp).avail <= now);
                // The earliest pending result: an unissued entry's `done`
                // is `u64::MAX`, and nothing issued or dispatched since the
                // census.
                let mut next = (w.head..w.disp)
                    .map(|i| w.slot(i).done)
                    .filter(|&done| done > now)
                    .min()
                    .unwrap_or(u64::MAX);
                if fetch_stall_until > now {
                    next = next.min(fetch_stall_until);
                }
                if next != u64::MAX && next > now + 1 {
                    let idle = next - 1 - now;
                    *stall_bucket(&mut stats.cpi_stack, w.oldest(), now) += idle;
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

/// The in-flight slice of the stream: one ring of [`RING`] slots indexed by
/// stream index modulo [`RING`]. Stream indices `[head, disp)` are the RUU
/// (oldest first), `[disp, fetch)` the IFQ, and `[fetch, end)` holds at
/// most one instruction pulled from the stream but not yet fetched.
///
/// Readiness lives in one-word bitsets over the same slots. Each slot has
/// the set of dispatched consumers waiting on its result. An unissued RUU
/// entry whose producers have all issued has a final `ready_at`, and sits
/// in the *ready* set once its operands have arrived. Until then it is
/// pending: in the wheel bucket of cycle `ready_at` when that is less than
/// [`WHEEL`] cycles away, in the *far* set otherwise.
struct InFlight {
    slots: Box<[Slot; RING]>,
    /// Unissued RUU entries whose operands have arrived.
    ready: u64,
    /// Bucket `c % WHEEL` holds the pending entries whose operands arrive
    /// in cycle `c`.
    wheel: [u64; WHEEL as usize],
    /// Pending entries whose operands arrive beyond the wheel's reach.
    far: u64,
    /// The earliest `ready_at` in `far`; `u64::MAX` when it is empty.
    far_min: u64,
    /// Per slot, the consumers waiting on that slot's result.
    consumers: [u64; RING],
    head: u64,
    disp: u64,
    fetch: u64,
    end: u64,
}

/// Slots in the in-flight ring, one bit each in a `u64`: the largest
/// in-flight window (IFQ + RUU + 1) a machine may have. The paper's takes
/// 33.
const RING: usize = 64;

/// Cycles the wheel of pending entries spans: more than a memory access
/// at the paper's latencies, so a load's consumers rarely wait in the far
/// set.
const WHEEL: u64 = 128;

/// Placeholder filling the ring's slots before their first use.
const EMPTY: Slot = Slot {
    op: Op::IAlu { lat: 1 },
    pc: 0,
    producers: [u64::MAX; 2],
    avail: 0,
    issued: false,
    waiting: 0,
    done: u64::MAX,
    ready_at: 0,
};

/// The ring slot of stream index `i`.
fn pos(i: u64) -> usize {
    (i % RING as u64) as usize
}

impl InFlight {
    /// A ring holding up to `capacity` instructions, which must fit in
    /// [`RING`] slots.
    fn new(capacity: usize) -> Self {
        assert!(
            capacity <= RING,
            "in-flight window IFQ + RUU + 1 = {capacity} exceeds the ring's {RING} slots"
        );
        InFlight {
            slots: Box::new([EMPTY; RING]),
            ready: 0,
            wheel: [0; WHEEL as usize],
            far: 0,
            far_min: u64::MAX,
            consumers: [0; RING],
            head: 0,
            disp: 0,
            fetch: 0,
            end: 0,
        }
    }

    fn slot(&self, i: u64) -> &Slot {
        &self.slots[pos(i)]
    }

    fn slot_mut(&mut self, i: u64) -> &mut Slot {
        &mut self.slots[pos(i)]
    }

    /// The oldest RUU entry, if any.
    fn oldest(&self) -> Option<&Slot> {
        (self.head < self.disp).then(|| self.slot(self.head))
    }

    /// Appends the next stream instruction.
    fn push(&mut self, inst: Inst) {
        assert!(self.end - self.head < RING as u64, "ring overflow");
        *self.slot_mut(self.end) = Slot::pulled(inst, self.end);
        self.end += 1;
    }

    /// Moves the IFQ's front instruction into the RUU in cycle `now`. Its
    /// issued producers set its ready cycle; it registers as a consumer of
    /// each producer still unissued, and if there is none it is ready or
    /// pending at once. Committed producers have delivered, and a
    /// producer before the stream's start (which validated traces never
    /// name) is ignored.
    #[inline]
    fn dispatch(&mut self, now: u64) {
        let idx = self.disp;
        self.disp += 1;
        let at = pos(idx);
        let (mut waiting, mut ready_at) = (0, 0);
        for producer in self.slots[at].producers {
            if producer < self.head || producer >= idx {
                continue;
            }
            let p = pos(producer);
            if self.slots[p].issued {
                ready_at = ready_at.max(self.slots[p].done);
            } else {
                self.consumers[p] |= 1 << at;
                waiting += 1;
            }
        }
        let s = &mut self.slots[at];
        s.waiting = waiting;
        s.ready_at = ready_at;
        if waiting == 0 {
            self.settle(at, now);
        }
    }

    /// Issues RUU entry `i` in cycle `now` with its result due at `done`,
    /// and wakes its consumers: each takes `done` into its ready cycle, and
    /// one with no producer left unissued becomes ready or pending.
    #[inline]
    fn issue(&mut self, i: u64, done: u64, now: u64) {
        let at = pos(i);
        self.slots[at].issued = true;
        self.slots[at].done = done;
        self.ready &= !(1 << at);
        let mut bits = std::mem::take(&mut self.consumers[at]);
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let s = &mut self.slots[c];
            s.ready_at = s.ready_at.max(done);
            s.waiting -= 1;
            if s.waiting == 0 {
                self.settle(c, now);
            }
        }
    }

    /// Files slot `at`, whose `ready_at` is final, as ready or pending.
    #[inline]
    fn settle(&mut self, at: usize, now: u64) {
        let ready_at = self.slots[at].ready_at;
        if ready_at <= now {
            self.ready |= 1 << at;
        } else if ready_at - now < WHEEL {
            self.wheel[(ready_at % WHEEL) as usize] |= 1 << at;
        } else {
            self.far |= 1 << at;
            self.far_min = self.far_min.min(ready_at);
        }
    }

    /// Makes the ready set hold every entry whose operands have arrived by
    /// `now`: it takes cycle `now`'s wheel bucket, and re-files the far
    /// set once its earliest entry comes within the wheel's reach. Called
    /// once per simulated cycle; a cycle the idle jump skips has an empty
    /// bucket, since every pending `ready_at` is the `done` of an issued
    /// RUU entry, which the jump never passes.
    #[inline]
    fn promote(&mut self, now: u64) {
        self.ready |= std::mem::take(&mut self.wheel[(now % WHEEL) as usize]);
        if self.far_min < now + WHEEL {
            self.far_min = u64::MAX;
            let mut bits = std::mem::take(&mut self.far);
            while bits != 0 {
                let at = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.settle(at, now);
            }
        }
    }

    /// The size of the ready set: Figure 15's ready-queue length.
    fn ready_count(&self) -> u64 {
        u64::from(self.ready.count_ones())
    }

    /// The oldest ready RUU entry at or after stream index `from`, for
    /// `head <= from <= disp`. Rotated to start at `from`'s slot, bit `t`
    /// of the ready set is stream index `from + t`, or, for a ready entry
    /// older than `from`, `from + t - RING`. The RUU holds fewer than
    /// [`RING`] entries, so the first set bit names an index below `disp`
    /// exactly when some entry at or after `from` is ready; an empty set
    /// names `from + RING`.
    #[inline]
    fn next_ready(&self, from: u64) -> Option<u64> {
        let bits = self.ready.rotate_right(pos(from) as u32);
        let i = from + u64::from(bits.trailing_zeros());
        (i < self.disp).then_some(i)
    }

    /// The ready set, oldest first.
    fn ready_list(&self) -> Vec<u64> {
        std::iter::successors(self.next_ready(self.head), |&i| self.next_ready(i + 1)).collect()
    }

    /// The ready census by its definition: every unissued RUU entry whose
    /// in-window producers have all issued with results due by `now`,
    /// oldest first. Debug builds compare the ready set with it every
    /// cycle.
    fn ready_by_scan(&self, now: u64) -> Vec<u64> {
        (self.head..self.disp)
            .filter(|&i| {
                let s = self.slot(i);
                !s.issued
                    && s.producers.into_iter().all(|producer| {
                        producer < self.head || producer >= i || {
                            let p = self.slot(producer);
                            p.issued && p.done <= now
                        }
                    })
            })
            .collect()
    }
}

/// The CPI-stack bucket of a cycle in which nothing commits: memory when
/// the oldest instruction is a memory op waiting on the hierarchy, core
/// when it waits on operands or a unit, front end when the window is empty.
fn stall_bucket<'a>(stack: &'a mut CpiStack, head: Option<&Slot>, now: u64) -> &'a mut u64 {
    match head {
        Some(h) if h.op.is_mem() && h.issued && h.done > now => &mut stack.memory,
        Some(_) => &mut stack.core,
        None => &mut stack.frontend,
    }
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

    /// `n` integer ops of latency 0 (any `Inst` may carry latency 0),
    /// each depending on the one before, looping over one I-cache block.
    fn zero_latency_chain(n: u32) -> ccp_trace::Trace {
        ccp_trace::Trace {
            name: "zero-latency chain".into(),
            initial_mem: ccp_mem::MainMemory::new(),
            insts: (0..n)
                .map(|i| {
                    let back = u64::from(i.min(1));
                    Inst::new(Op::IAlu { lat: 0 }, 0x0040_0000 + 4 * (i % 16), [back, 0])
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
        let s = run_source(&same_word_store_loop(), &mut bc(), &cfg);
        assert_eq!(s.instructions, 800);
        assert_eq!(
            (s.cycles, s.forwarded_loads, s.branch_mispredicts),
            (860, 42, 41)
        );
    }

    #[test]
    fn consumers_of_a_slow_miss_wait_beyond_the_wheel() {
        // A 300-cycle memory puts each load's consumer further ahead than
        // the pending wheel reaches, so it waits in the far set: a chain
        // of 50 misses still pays exactly 300 cycles a load, stepped or
        // skipped, with the census checked every cycle in debug builds.
        let mut ctx = ProgramCtx::new("t");
        let mut d = H::NONE;
        for i in 0..50u32 {
            d = ctx.load(0x10_0000 + i * 4096, d).0;
            ctx.alu(d, H::NONE);
        }
        let t = ctx.finish();
        let slow = || {
            let mut c = bc();
            let lat = c.latencies();
            c.set_latencies(ccp_cache::LatencyConfig { memory: 300, ..lat });
            c
        };
        let cfg = PipelineConfig::paper();
        let skipped = run_source(&t, &mut slow(), &cfg);
        let stepped = run_source_stepped(&t, &mut slow(), &cfg);
        assert_eq!(skipped.cycles, 50 * 300 + 14);
        assert_eq!(format!("{skipped:?}"), format!("{stepped:?}"));
    }

    /// Two cold loads, ALUs up to index 4095, then at index 4096 an ALU
    /// that uses the load `back` instructions before it (4095 for the
    /// second, 4096 for the first, 0 for none), then ten more ALUs.
    fn far_consumer(back: u32) -> ccp_trace::Trace {
        let mut ctx = ProgramCtx::new("t");
        let first = ctx.load(0x10_0000, H::NONE).0;
        let second = ctx.load(0x20_0000, H::NONE).0;
        while ctx.len() < 4096 {
            ctx.alu(H::NONE, H::NONE);
        }
        let used = match back {
            4095 => second,
            4096 => first,
            _ => H::NONE,
        };
        ctx.alu(used, H::NONE);
        for _ in 0..10 {
            ctx.alu(H::NONE, H::NONE);
        }
        ctx.finish()
    }

    #[test]
    fn dependences_reach_back_4095_instructions_and_no_further() {
        // A memory slower than 4095 single-issue cycles keeps both loads
        // outstanding when the in-order core reaches the consumer: it
        // stalls on the load 4095 back and runs as if independent of the
        // one 4096 back. The out-of-order window commits both loads long
        // before the consumer enters it, so all three runs agree there.
        let slow = || {
            let mut c = bc();
            let lat = c.latencies();
            c.set_latencies(ccp_cache::LatencyConfig {
                memory: 10_000,
                ..lat
            });
            c
        };
        let cfg = PipelineConfig::paper();
        let inorder = |back| run_inorder(&far_consumer(back), &mut slow(), &cfg);
        let (near, far, none) = (inorder(4095), inorder(4096), inorder(0));
        assert!(near.cycles > 10_000, "stalls on the load: {}", near.cycles);
        assert!(far.cycles < 10_000, "ignores the load: {}", far.cycles);
        assert_eq!(format!("{far:?}"), format!("{none:?}"));
        let ooo = |back| format!("{:?}", run_source(&far_consumer(back), &mut slow(), &cfg));
        assert_eq!(ooo(4095), ooo(4096));
        assert_eq!(ooo(4096), ooo(0));
    }

    /// A loop of 200 iterations, each storing to one of three words and
    /// loading it back, with a branch on the loaded value.
    fn same_word_store_loop() -> ccp_trace::Trace {
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
        ctx.finish()
    }

    /// The counters a change of scheduler could move.
    fn schedule_pin(s: &RunStats) -> (u64, u64, u64, u64) {
        (
            s.cycles,
            s.forwarded_loads,
            s.branch_mispredicts,
            s.ready_len_sum,
        )
    }

    #[test]
    #[should_panic(expected = "IFQ + RUU + 1 = 97 exceeds the ring's 64 slots")]
    fn a_window_wider_than_the_ring_is_refused() {
        let cfg = PipelineConfig {
            ruu_size: 64,
            ifq_size: 32,
            lsq_size: 32,
            ..PipelineConfig::paper()
        };
        run_source(&same_word_store_loop(), &mut bc(), &cfg);
    }

    /// The two largest machines whose in-flight window (RUU + IFQ + one
    /// unfetched instruction) is exactly 64 slots: a deep RUU behind a
    /// 16-entry IFQ, and a 62-entry RUU behind a 1-entry IFQ.
    fn full_rings() -> [PipelineConfig; 2] {
        [(47, 16), (62, 1)].map(|(ruu_size, ifq_size)| PipelineConfig {
            ruu_size,
            ifq_size,
            lsq_size: 32,
            ..PipelineConfig::paper()
        })
    }

    #[test]
    fn full_ring_keeps_exact_counters_on_health() {
        let t = ccp_trace::benchmark_by_name("health")
            .unwrap()
            .trace(5000, 3);
        let pins = full_rings().map(|cfg| {
            let bc = run_source(&t, &mut bc(), &cfg);
            let cpp = run_source(&t, &mut CppHierarchy::paper(), &cfg);
            assert_eq!(bc.instructions, t.len() as u64);
            (schedule_pin(&bc), schedule_pin(&cpp))
        });
        assert_eq!(
            pins,
            [
                ((8961, 0, 113, 3657), (8191, 0, 113, 3810)),
                ((8373, 0, 113, 4107), (8075, 0, 113, 3876)),
            ]
        );
    }

    #[test]
    fn full_ring_keeps_exact_counters_on_same_word_stores() {
        let pins = full_rings().map(|cfg| {
            let s = run_source(&same_word_store_loop(), &mut bc(), &cfg);
            assert_eq!(s.instructions, 800);
            schedule_pin(&s)
        });
        assert_eq!(pins, [(860, 200, 41, 0), (1018, 0, 41, 0)]);
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
