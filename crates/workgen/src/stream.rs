//! The streaming generator: address/value/mix models crossed into a
//! deterministic `Iterator<Item = Inst>` plus the matching initial memory
//! image.
//!
//! Determinism contract: the stream is a pure function of `(spec, seed,
//! budget)`. Three independent sub-generators are derived from the seed —
//! one per model — so the *address and op sequences are identical across
//! value-model settings*: a compressibility sweep varies only what the
//! words hold, never which words are touched. That is what makes the
//! `compressibility_sweep` experiment's traffic curves comparable point to
//! point.

use crate::spec::{AddrModel, ValueModel, WorkgenSpec};
use crate::zipf::ZipfSampler;
use ccp_mem::MainMemory;
use ccp_trace::{Addr, Inst, Op, Word, H, LAT_FALU, LAT_IALU};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Base of the flat data region used by all address models but `chase`.
pub const DATA_BASE: Addr = 0x4000_0000;

/// Base of the chase model's synthetic bump-allocated heap.
pub const HEAP_BASE: Addr = 0x5000_0000;

/// Base of the synthetic code region (mirrors `ProgramCtx`).
const CODE_BASE: u32 = 0x0040_0000;

/// PC slots in the synthetic loop body: PCs repeat every `LOOP_SLOTS`
/// instructions so the I-cache and branch predictor see a loop.
const LOOP_SLOTS: u64 = 256;

/// Bytes per chase node: next pointer + 7 payload words.
pub const NODE_BYTES: u32 = 32;

/// Seed-stream tags, one per sub-generator.
const TAG_ADDR: u64 = 0x6164_6472; // "addr"
const TAG_VALUE: u64 = 0x7661_6c75; // "valu"
const TAG_MIX: u64 = 0x6d69_785f; // "mix_"
const TAG_IMAGE: u64 = 0x696d_6167; // "imag"
const TAG_CHASE: u64 = 0x6368_6173; // "chas"

/// Derives a sub-generator of `seed` for one tagged stream.
fn sub_rng(seed: u64, tag: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.rotate_left(23) ^ tag.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// SplitMix64 finalizer: maps pool indices to well-mixed words.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ValueModel {
    /// Draws one word for storage at `addr`: small / same-chunk pointer /
    /// incompressible in the requested proportions.
    pub fn sample(&self, addr: Addr, rng: &mut SmallRng) -> Word {
        let u: f64 = rng.gen();
        if u < self.small_fraction {
            rng.gen_range(-16384i32..=16383) as Word
        } else if u < self.small_fraction + self.pointer_fraction {
            // A word-aligned pointer into the storage address's own 32 KB
            // chunk. Data regions sit above 0x4000_0000, so the result can
            // never also satisfy the small-value rule.
            (addr & !0x7FFF) | (rng.gen_range(0..0x2000u32) * 4)
        } else {
            // Incompressible by construction: the 0xAB prefix is neither
            // uniform in its high 18 bits nor equal to any data-region
            // chunk prefix. Entropy shrinks the pool of distinct words.
            let pool_bits = (self.entropy.clamp(0.0, 1.0) * 24.0).round() as u32;
            let mask = if pool_bits == 0 {
                0
            } else {
                (1u64 << pool_bits) - 1
            };
            let idx = rng.gen::<u64>() & mask;
            0xAB00_0000 | (mix64(idx) as u32 & 0x00FF_FFFF)
        }
    }
}

/// The cyclic successor permutation for a chase heap: `next[i]` is the
/// node index node `i` points at. Sattolo's algorithm yields a single
/// cycle covering every node, so the chase never gets stuck in a short
/// loop. Depends only on `(seed, nodes)` — never on the value model.
fn chase_permutation(seed: u64, nodes: u32) -> Vec<u32> {
    let mut rng = sub_rng(seed, TAG_CHASE);
    let mut next: Vec<u32> = (0..nodes).collect();
    for i in (1..nodes as usize).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    next
}

/// Byte address of chase node `i` (bump allocation packs nodes
/// contiguously from `HEAP_BASE`).
fn node_addr(i: u32) -> Addr {
    HEAP_BASE + i * NODE_BYTES
}

/// Builds the memory image the stream's loads observe before any store:
/// every word a load can touch is pre-filled from the value model, so the
/// measured compressibility of the whole stream tracks the requested
/// fractions.
pub fn build_initial_mem(spec: &WorkgenSpec, seed: u64) -> MainMemory {
    let mut rng = sub_rng(seed, TAG_IMAGE);
    let mut mem = MainMemory::new();
    match spec.addr {
        AddrModel::Chase { nodes } => {
            let next = chase_permutation(seed, nodes);
            for i in 0..nodes {
                let base = node_addr(i);
                mem.write(base, node_addr(next[i as usize]));
                for w in 1..(NODE_BYTES / 4) {
                    let a = base + w * 4;
                    mem.write(a, spec.value.sample(a, &mut rng));
                }
            }
        }
        _ => {
            for i in 0..spec.footprint_words {
                let a = DATA_BASE + i * 4;
                mem.write(a, spec.value.sample(a, &mut rng));
            }
        }
    }
    mem
}

/// Address-model runtime state.
enum AddrState {
    Walk { pos: u32, stride: u32 },
    Uniform,
    Zipf { sampler: ZipfSampler },
    Chase { next: Vec<u32>, cur: u32 },
}

impl AddrState {
    fn new(spec: &WorkgenSpec, seed: u64) -> AddrState {
        match spec.addr {
            AddrModel::Sequential => AddrState::Walk { pos: 0, stride: 1 },
            AddrModel::Strided { stride } => AddrState::Walk { pos: 0, stride },
            AddrModel::Uniform => AddrState::Uniform,
            AddrModel::Zipf { skew } => AddrState::Zipf {
                // Zipf over at most 64Ki ranks (the hot set).
                sampler: ZipfSampler::new(spec.footprint_words.min(64 * 1024) as usize, skew),
            },
            AddrModel::Chase { nodes } => AddrState::Chase {
                next: chase_permutation(seed, nodes),
                cur: 0,
            },
        }
    }
}

/// The deterministic instruction stream for one `(spec, seed, budget)`
/// triple. Holds O(spec) state — never O(budget).
pub struct WorkgenStream {
    spec: WorkgenSpec,
    budget: u64,
    emitted: u64,
    addr_state: AddrState,
    addr_rng: SmallRng,
    value_rng: SmallRng,
    mix_rng: SmallRng,
    /// Producer handles for dependence edges.
    last_alu: H,
    last_load: H,
}

impl WorkgenStream {
    /// Creates the stream. Same arguments, same instruction sequence.
    pub fn new(spec: &WorkgenSpec, seed: u64, budget: u64) -> WorkgenStream {
        assert!(
            budget < u64::from(u32::MAX),
            "budget {budget} exceeds the trace format's u32 dependence indices"
        );
        WorkgenStream {
            spec: *spec,
            budget,
            emitted: 0,
            addr_state: AddrState::new(spec, seed),
            addr_rng: sub_rng(seed, TAG_ADDR),
            value_rng: sub_rng(seed, TAG_VALUE),
            mix_rng: sub_rng(seed, TAG_MIX),
            last_alu: H::NONE,
            last_load: H::NONE,
        }
    }

    /// Instructions this stream will yield in total.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The next data address for a load. Chase loads follow the pointer
    /// cycle half the time (serialized on the previous load, like real
    /// list traversal) and read the current node's payload otherwise.
    fn load_addr(&mut self) -> (Addr, bool) {
        match &mut self.addr_state {
            AddrState::Chase { next, cur } => {
                if self.addr_rng.gen_bool(0.5) {
                    let a = node_addr(*cur);
                    *cur = next[*cur as usize];
                    (a, true)
                } else {
                    let w = self.addr_rng.gen_range(1..NODE_BYTES / 4);
                    (node_addr(*cur) + w * 4, false)
                }
            }
            _ => (self.flat_addr(), false),
        }
    }

    /// The next data address for a store. Chase stores only ever touch
    /// payload words — the pointer cycle is immutable.
    fn store_addr(&mut self) -> Addr {
        match &mut self.addr_state {
            AddrState::Chase { cur, .. } => {
                let w = self.addr_rng.gen_range(1..NODE_BYTES / 4);
                node_addr(*cur) + w * 4
            }
            _ => self.flat_addr(),
        }
    }

    /// Address sampling for the flat-region models.
    fn flat_addr(&mut self) -> Addr {
        let footprint = self.spec.footprint_words;
        let idx = match &mut self.addr_state {
            AddrState::Walk { pos, stride } => {
                let i = *pos;
                *pos = (*pos + *stride) % footprint;
                i
            }
            AddrState::Uniform => self.addr_rng.gen_range(0..footprint),
            AddrState::Zipf { sampler } => {
                let rank = sampler.sample(&mut self.addr_rng) as u64;
                // Scatter ranks across the footprint (multiplicative
                // hashing): the skew is temporal, not a hot prefix.
                ((rank * 2_654_435_761) % u64::from(footprint)) as u32
            }
            #[expect(
                clippy::unreachable,
                reason = "chase streams address through nodes and never reach this match"
            )]
            AddrState::Chase { .. } => unreachable!("chase uses node addressing"),
        };
        DATA_BASE + idx * 4
    }
}

impl Iterator for WorkgenStream {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        if self.emitted >= self.budget {
            return None;
        }
        let i = self.emitted;
        let pc = CODE_BASE + ((i % LOOP_SLOTS) as u32) * 4;
        let handle = H((i + 1) as u32);
        let mix = self.spec.mix;
        let u: f64 = self.mix_rng.gen();
        let (op, deps) = if u < mix.mem_fraction {
            if self.mix_rng.gen_bool(mix.store_fraction) {
                let addr = self.store_addr();
                let value = self.spec.value.sample(addr, &mut self.value_rng);
                (Op::Store { addr, value }, [self.last_alu, self.last_load])
            } else {
                let (addr, chased) = self.load_addr();
                // A pointer-follow load is serialized on the previous
                // load — the address *is* the previous load's result.
                let dep = if chased {
                    self.last_load
                } else {
                    self.last_alu
                };
                self.last_load = handle;
                (Op::Load { addr }, [dep, H::NONE])
            }
        } else if u < mix.mem_fraction + mix.branch_fraction {
            let taken = self.mix_rng.gen_bool(0.85);
            (Op::Branch { taken }, [self.last_alu, H::NONE])
        } else if u < mix.mem_fraction + mix.branch_fraction + mix.falu_fraction {
            (Op::FAlu { lat: LAT_FALU }, [self.last_alu, H::NONE])
        } else {
            // Integer work: consume the latest load half the time so loads
            // feed real dataflow, but leave headroom for ILP.
            let feed_load = self.mix_rng.gen_bool(0.5);
            let deps = [
                self.last_alu,
                if feed_load { self.last_load } else { H::NONE },
            ];
            self.last_alu = handle;
            (Op::IAlu { lat: LAT_IALU }, deps)
        };
        let inst = Inst::new(op, pc, deps.map(|d| d.back_from(i)));
        self.emitted += 1;
        Some(inst)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.budget - self.emitted) as usize;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_compress::classify;

    fn spec(text: &str) -> WorkgenSpec {
        WorkgenSpec::parse(text).unwrap()
    }

    fn collect(spec: &WorkgenSpec, seed: u64, budget: u64) -> Vec<Inst> {
        WorkgenStream::new(spec, seed, budget).collect()
    }

    #[test]
    fn stream_yields_exactly_budget() {
        for text in ["", "addr=seq", "addr=chase,nodes=64", "addr=zipf"] {
            let s = spec(text);
            assert_eq!(collect(&s, 1, 5_000).len(), 5_000, "{text}");
        }
    }

    #[test]
    fn same_seed_same_stream_different_seed_different() {
        let s = spec("addr=zipf,small=0.5");
        let a = collect(&s, 42, 10_000);
        let b = collect(&s, 42, 10_000);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
        let c = collect(&s, 43, 10_000);
        assert!(a.iter().zip(&c).any(|(x, y)| x.op() != y.op()));
    }

    #[test]
    fn address_stream_invariant_under_value_model() {
        // The compressibility sweep's cornerstone: changing the value
        // model must not move a single address or op kind.
        let lo = spec("addr=uniform,small=0.0,ptr=0.0");
        let hi = spec("addr=uniform,small=1.0,ptr=0.0");
        for (a, b) in collect(&lo, 9, 20_000).iter().zip(&collect(&hi, 9, 20_000)) {
            match (a.op(), b.op()) {
                (Op::Load { addr: x }, Op::Load { addr: y }) => assert_eq!(x, y),
                (Op::Store { addr: x, .. }, Op::Store { addr: y, .. }) => assert_eq!(x, y),
                (x, y) => assert_eq!(std::mem::discriminant(&x), std::mem::discriminant(&y)),
            }
        }
    }

    #[test]
    fn value_model_hits_requested_fractions() {
        let m = ValueModel {
            small_fraction: 0.6,
            pointer_fraction: 0.25,
            entropy: 1.0,
        };
        let mut rng = sub_rng(7, TAG_VALUE);
        let mut profile = ccp_compress::profile::ValueProfile::new();
        for i in 0..100_000u32 {
            let addr = DATA_BASE + (i % 4096) * 4;
            profile.record(m.sample(addr, &mut rng), addr);
        }
        assert!((profile.small_fraction() - 0.6).abs() < 0.01);
        assert!((profile.pointer_fraction() - 0.25).abs() < 0.01);
    }

    #[test]
    fn zero_entropy_repeats_one_incompressible_word() {
        let m = ValueModel {
            small_fraction: 0.0,
            pointer_fraction: 0.0,
            entropy: 0.0,
        };
        let mut rng = sub_rng(3, TAG_VALUE);
        let first = m.sample(DATA_BASE, &mut rng);
        for _ in 0..100 {
            let v = m.sample(DATA_BASE + 64, &mut rng);
            assert_eq!(v, first);
            assert!(!classify(v, DATA_BASE + 64).is_compressible());
        }
    }

    #[test]
    fn chase_cycle_covers_every_node() {
        let next = chase_permutation(11, 257);
        let mut seen = vec![false; 257];
        let mut cur = 0u32;
        for _ in 0..257 {
            assert!(!seen[cur as usize], "short cycle at node {cur}");
            seen[cur as usize] = true;
            cur = next[cur as usize];
        }
        assert_eq!(cur, 0, "trajectory is a single 257-cycle");
    }

    #[test]
    fn chase_loads_match_the_image_pointers() {
        // Follow-loads must observe exactly the pointers the image holds.
        let s = spec("addr=chase,nodes=64,store=0.0,mem=1.0,branch=0.0,falu=0.0");
        let mem = build_initial_mem(&s, 5);
        let mut expected = HEAP_BASE; // cur starts at node 0
        for inst in WorkgenStream::new(&s, 5, 2_000) {
            if let Op::Load { addr } = inst.op() {
                if addr % NODE_BYTES == 0 {
                    assert_eq!(addr, expected, "follow-load visits the current node");
                    expected = mem.read(addr);
                }
            }
        }
    }

    #[test]
    fn flat_models_stay_inside_the_footprint() {
        for text in [
            "addr=seq,footprint=128",
            "addr=stride,stride=24,footprint=128",
            "addr=uniform,footprint=128",
            "addr=zipf,skew=2.0,footprint=128",
        ] {
            let s = spec(text);
            for inst in WorkgenStream::new(&s, 2, 10_000) {
                if let Op::Load { addr } | Op::Store { addr, .. } = inst.op() {
                    assert!(
                        (DATA_BASE..DATA_BASE + 128 * 4).contains(&addr),
                        "{text}: {addr:#x}"
                    );
                    assert_eq!(addr % 4, 0);
                }
            }
        }
    }

    #[test]
    fn dependences_point_strictly_backwards() {
        let s = spec("addr=chase,nodes=128");
        for (n, inst) in WorkgenStream::new(&s, 8, 5_000).enumerate() {
            for d in inst.deps() {
                assert!(d as usize <= n, "inst {n} dep {d} back");
            }
        }
    }
}
