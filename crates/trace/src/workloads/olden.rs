//! Olden-like pointer-intensive workload generators.
//!
//! Each generator builds the benchmark's real data structure in a simulated
//! heap (bump-allocated, so intra-structure pointers mostly share 32 KB
//! chunks) and emits the characteristic traversal/update loops. Structure
//! field layouts follow the originals loosely: one word per scalar field,
//! pointer fields holding genuine heap addresses, and "payload" fields
//! holding large bit patterns where the original held doubles.

use crate::builder::{ProgramCtx, H};
use crate::{Trace, Word};
use ccp_mem::ChunkAllocator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A value guaranteed incompressible at any heap address: high bits set,
/// not matching heap prefixes.
fn big(rng: &mut SmallRng) -> Word {
    0x4000_0000 | rng.gen_range(0x8000u32..0x40_0000) | (rng.gen_range(1u32..0x300) << 22)
}

/// A small (always compressible) value.
fn small(rng: &mut SmallRng, max: u32) -> Word {
    rng.gen_range(0..max.min(16383))
}

/// olden.bisort — bitonic sort over a balanced binary tree of integers.
///
/// Traversals compare child values and conditionally swap them in place, so
/// the store stream mixes small and large values and flips words between
/// compressibility classes (§3.3's hazard in the wild).
pub fn bisort(budget: usize, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = ProgramCtx::new("olden.bisort");
    let mut heap = ChunkAllocator::new(0x1000_0000, 1 << 21);

    // Node: {left, right, value, pad} — 16 bytes.
    let depth = 14;
    let n_nodes = (1u32 << depth) - 1;
    let nodes: Vec<u32> = (0..n_nodes).map(|_| heap.alloc_aligned(16, 16)).collect();
    for (i, &a) in nodes.iter().enumerate() {
        let l = 2 * i + 1;
        let r = 2 * i + 2;
        ctx.init_write(a, if l < nodes.len() { nodes[l] } else { 0 });
        ctx.init_write(a + 4, if r < nodes.len() { nodes[r] } else { 0 });
        let v = if rng.gen_bool(0.7) {
            small(&mut rng, 16000)
        } else {
            big(&mut rng)
        };
        ctx.init_write(a + 8, v);
        ctx.init_write(a + 12, 0);
    }

    let head = ctx.label();
    let body = ctx.label();
    while ctx.len() < budget {
        ctx.at(head);
        // One sweep: random root-to-leaf path with compare-and-swap.
        let mut p = nodes[0];
        let mut dep = H::NONE;
        while p != 0 && ctx.len() < budget + 64 {
            ctx.at(body);
            let (hv, v) = ctx.load(p + 8, dep);
            let (hl, left) = ctx.load(p, dep);
            let (hr, right) = ctx.load(p + 4, dep);
            let go_left = rng.gen_bool(0.5);
            let child = if go_left { left } else { right };
            let hc = if go_left { hl } else { hr };
            if child == 0 {
                ctx.branch(false, hv);
                break;
            }
            let (hcv, cv) = ctx.load(child + 8, hc);
            // Bitonic compare: direction bit, xor, and the comparison chain.
            let dir = ctx.alu(hv, H::NONE);
            let x1 = ctx.alu(hcv, dir);
            let x2 = ctx.alu(x1, H::NONE);
            let cmp = ctx.alu(hv, x2);
            let swap = (v > cv) ^ go_left;
            ctx.branch(swap, cmp);
            if swap {
                ctx.store(p + 8, cv, dep, hcv);
                ctx.store(child + 8, v, hc, hv);
            }
            p = child;
            dep = hc;
        }
    }
    ctx.finish()
}

/// olden.em3d — electromagnetic wave propagation on a bipartite graph.
///
/// Node values are large FP bit patterns; the traversal loads neighbour
/// pointers (compressible) and their values (incompressible), multiplies by
/// coefficients and stores the new value — moderate compressibility.
pub fn em3d(budget: usize, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = ProgramCtx::new("olden.em3d");
    let mut heap = ChunkAllocator::new(0x1100_0000, 1 << 21);

    // Node: {value, from0, from1, from2, coeff0, coeff1, coeff2, count} — 32 B.
    // E and H nodes are allocated interleaved, as em3d's `make_graph` does
    // on one processor, so the mostly-local from-links land in nearby chunks.
    let n = 8192u32;
    let mut e_nodes = Vec::with_capacity(n as usize);
    let mut h_nodes = Vec::with_capacity(n as usize);
    for _ in 0..n {
        e_nodes.push(heap.alloc_aligned(32, 32));
        h_nodes.push(heap.alloc_aligned(32, 32));
    }
    let init_side =
        |side: &Vec<u32>, other: &Vec<u32>, rng: &mut SmallRng, ctx: &mut ProgramCtx| {
            for (i, &a) in side.iter().enumerate() {
                ctx.init_write(a, big(rng)); // value
                for k in 0..3 {
                    // Dependencies are local in the mesh: ±16 nodes.
                    let j = (i as i64 + rng.gen_range(-16i64..=16)).rem_euclid(other.len() as i64)
                        as usize;
                    ctx.init_write(a + 4 + k * 4, other[j]); // from pointers
                    ctx.init_write(a + 16 + k * 4, big(rng)); // coefficients
                }
                ctx.init_write(a + 28, 3); // degree (small)
            }
        };
    init_side(&e_nodes, &h_nodes, &mut rng, &mut ctx);
    init_side(&h_nodes, &e_nodes, &mut rng, &mut ctx);

    let body = ctx.label();
    let mut phase = 0usize;
    while ctx.len() < budget {
        let side = if phase.is_multiple_of(2) {
            &e_nodes
        } else {
            &h_nodes
        };
        for &a in side {
            if ctx.len() >= budget {
                break;
            }
            ctx.at(body);
            let mut acc = H::NONE;
            for k in 0..3u32 {
                // from-list index arithmetic, as in the original's
                // `node->from_nodes[k]` addressing.
                let i1 = ctx.alu(acc, H::NONE);
                let i2 = ctx.alu(i1, H::NONE);
                let (hp, from) = ctx.load(a + 4 + k * 4, i2);
                let (hv, _v) = ctx.load(from, hp); // neighbour value
                let (hc, _c) = ctx.load(a + 16 + k * 4, i2);
                let m = ctx.fmul(hv, hc);
                acc = ctx.falu(acc, m);
            }
            ctx.store(a, big(&mut rng), H::NONE, acc);
            ctx.branch(true, acc);
        }
        phase += 1;
    }
    ctx.finish()
}

/// olden.health — the Columbian health-care simulation, the paper's own
/// motivating example (Figure 5): villages with linked waiting lists of
/// patients whose nodes mix pointers, small counters, and one large field.
pub fn health(budget: usize, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = ProgramCtx::new("olden.health");
    let mut heap = ChunkAllocator::new(0x1200_0000, 1 << 22);

    // Village: {list_head, patient_count, parent, pad} — 16 B.
    // Patient: {next, time, id, data} — 16 B (paper Figure 5 layout).
    let n_villages = 256u32;
    let villages: Vec<u32> = (0..n_villages)
        .map(|_| heap.alloc_aligned(16, 16))
        .collect();
    for (i, &v) in villages.iter().enumerate() {
        let parent = if i == 0 { 0 } else { villages[(i - 1) / 4] };
        // Build this village's patient list.
        let n_pat = rng.gen_range(16..48);
        let mut head = 0u32;
        for p in 0..n_pat {
            let a = heap.alloc_aligned(16, 16);
            ctx.init_write(a, head); // next
            ctx.init_write(a + 4, small(&mut rng, 100)); // time
                                                         // Type tag: only ~1/8 of patients are "type T" whose large
                                                         // info field the traversal must touch (paper Figure 5's point);
                                                         // about half are in treatment and get their time updated.
            let id = if p % 8 == 0 { 0 } else { 1 + (p & 1) };
            ctx.init_write(a + 8, id); // type/id (small)
            ctx.init_write(a + 12, big(&mut rng)); // data (large)
            head = a;
        }
        ctx.init_write(v, head);
        ctx.init_write(v + 4, n_pat);
        ctx.init_write(v + 8, parent);
        ctx.init_write(v + 12, 0);
    }

    let visit = ctx.label();
    let chase = ctx.label();
    let mut vi = 0usize;
    while ctx.len() < budget {
        let v = villages[vi % villages.len()];
        vi += 1;
        ctx.at(visit);
        let (hh, head) = ctx.load(v, H::NONE);
        let mut p = head;
        let mut dep = hh;
        let mut steps = 0;
        while p != 0 && ctx.len() < budget + 64 {
            ctx.at(chase);
            // Statement (2)-(4) of the paper's Figure 5 loop: read the
            // type tag, conditionally touch the large info field, and only
            // update the waiting time of the in-treatment subset (the
            // original's waiting-list scan is read-mostly).
            let (ht, t) = ctx.load(p + 4, dep); // time
            let (hid, id) = ctx.load(p + 8, dep); // type tag
            let t1 = ctx.alu(ht, H::NONE);
            let cond = ctx.alu(hid, t1);
            ctx.branch(id == 0, cond);
            if id == 0 {
                ctx.load(p + 12, dep); // the large info field
            } else if id == 1 {
                ctx.store(p + 4, (t + 1) & 0x3FFF, dep, t1);
            }
            let (hn, next) = ctx.load(p, dep); // follow `next`
            ctx.branch(next != 0, hn);
            p = next;
            dep = hn;
            steps += 1;
            if steps > 40 {
                break;
            }
        }
        // Occasionally transfer the head patient to the parent village.
        if vi.is_multiple_of(7) {
            let (hpar, parent) = ctx.load(v + 8, H::NONE);
            if parent != 0 {
                let (hh2, head2) = ctx.load(v, H::NONE);
                if head2 != 0 {
                    let (hn, next) = ctx.load(head2, hh2);
                    ctx.store(v, next, H::NONE, hn);
                    let (hph, phead) = ctx.load(parent, hpar);
                    ctx.store(head2, phead, hh2, hph);
                    ctx.store(parent, head2, hpar, hh2);
                }
            }
        }
    }
    ctx.finish()
}

/// olden.mst — minimum spanning tree over a graph with per-vertex hash
/// tables: computed-index accesses with poor spatial locality plus chained
/// bucket walks.
pub fn mst(budget: usize, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = ProgramCtx::new("olden.mst");
    let mut heap = ChunkAllocator::new(0x1300_0000, 1 << 22);

    let n_vert = 512u32;
    let table_size = 64u32;
    // Vertex: {hash_table_ptr, min_weight, pad, pad}.
    let verts: Vec<u32> = (0..n_vert).map(|_| heap.alloc_aligned(16, 16)).collect();
    let tables: Vec<u32> = (0..n_vert)
        .map(|_| heap.alloc_aligned(table_size * 4, 64))
        .collect();
    // Bucket entry: {key, weight, next, pad}. Keys are placed in their true
    // hash slot so lookups of known keys succeed, as in the real hash table.
    let mut known: Vec<(usize, u32)> = Vec::new();
    for i in 0..n_vert as usize {
        ctx.init_write(verts[i], tables[i]);
        ctx.init_write(verts[i] + 4, 16000);
        let mut heads = vec![0u32; table_size as usize];
        for _ in 0..table_size {
            let key = rng.gen_range(0..n_vert);
            let slot = (key.wrapping_mul(31) & (table_size - 1)) as usize;
            let e = heap.alloc_aligned(16, 16);
            ctx.init_write(e, key);
            ctx.init_write(e + 4, small(&mut rng, 4000)); // weight
            ctx.init_write(e + 8, heads[slot]);
            heads[slot] = e;
            known.push((i, key));
        }
        for (s, &h) in heads.iter().enumerate() {
            ctx.init_write(tables[i] + (s as u32) * 4, h);
        }
    }

    let outer = ctx.label();
    let walk = ctx.label();
    let mut iter = 0usize;
    while ctx.len() < budget {
        ctx.at(outer);
        iter += 1;
        let (vi, key) = if rng.gen_bool(0.7) {
            known[rng.gen_range(0..known.len())]
        } else {
            (rng.gen_range(0..n_vert as usize), rng.gen_range(0..n_vert))
        };
        // Periodically restart the vertex's best-edge search (each MST
        // round rescans with a fresh minimum).
        if iter.is_multiple_of(16) {
            let reset = ctx.alu(H::NONE, H::NONE);
            ctx.store(verts[vi] + 4, 16000, H::NONE, reset);
        }
        let (hv, table) = ctx.load(verts[vi], H::NONE);
        // hash = (key * 31) & (table_size-1): two ALU ops feeding the index.
        let h1 = ctx.mult(hv, H::NONE);
        let h2 = ctx.alu(h1, H::NONE);
        let slot = (key.wrapping_mul(31)) & (table_size - 1);
        let (hb, mut p) = ctx.load(table + slot * 4, h2);
        let mut dep = hb;
        while p != 0 && ctx.len() < budget + 64 {
            ctx.at(walk);
            let (hk, k) = ctx.load(p, dep);
            let c0 = ctx.alu(hk, H::NONE);
            let c1 = ctx.alu(c0, H::NONE);
            let cmp = ctx.alu(c1, H::NONE);
            ctx.branch(k == key, cmp);
            if k == key {
                let (hw, w) = ctx.load(p + 4, dep);
                let (hm, m) = ctx.load(verts[vi] + 4, H::NONE);
                let c2 = ctx.alu(hw, hm);
                ctx.branch(w < m, c2);
                if w < m {
                    ctx.store(verts[vi] + 4, w, H::NONE, hw);
                }
                break;
            }
            let (hn, next) = ctx.load(p + 8, dep);
            p = next;
            dep = hn;
        }
    }
    ctx.finish()
}

/// olden.perimeter — perimeter of a region in a quadtree image: almost pure
/// pointer chasing over 5-word nodes with a small type tag.
pub fn perimeter(budget: usize, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = ProgramCtx::new("olden.perimeter");
    let mut heap = ChunkAllocator::new(0x1400_0000, 1 << 22);

    // Node: {type, c0, c1, c2, c3, pad*3} — 32 B.
    fn build(
        heap: &mut ChunkAllocator,
        ctx: &mut ProgramCtx,
        rng: &mut SmallRng,
        depth: u32,
    ) -> u32 {
        let a = heap.alloc_aligned(32, 32);
        // The root is always internal: a leaf root degenerates every descent
        // into a store-free spin for unlucky seeds.
        let is_leaf = depth == 0 || (depth < 8 && rng.gen_bool(0.3));
        ctx.init_write(a, if is_leaf { rng.gen_range(1..3) } else { 0 });
        for k in 0..4 {
            let c = if is_leaf {
                0
            } else {
                build(heap, ctx, rng, depth - 1)
            };
            ctx.init_write(a + 4 + k * 4, c);
        }
        a
    }
    let root = build(&mut heap, &mut ctx, &mut rng, 8);
    // The recursion's activation-record spill area.
    let stack_base = 0x1480_0000u32;
    ctx.init_write(stack_base, 0);

    let body = ctx.label();
    let mut accum = 0u32;
    while ctx.len() < budget {
        // Random descent with full child inspection (the recursive
        // perimeter walk visits all four children of each internal node).
        let mut p = root;
        let mut dep = H::NONE;
        let mut depth = 0u32;
        loop {
            ctx.at(body);
            let (ht, ty) = ctx.load(p, dep);
            let cmp = ctx.alu(ht, H::NONE);
            ctx.branch(ty != 0, cmp);
            if ty != 0 || ctx.len() >= budget + 64 {
                break;
            }
            let mut children = [0u32; 4];
            let mut hs = [H::NONE; 4];
            let mut sum = H::NONE;
            for k in 0..4u32 {
                let (hc, c) = ctx.load(p + 4 + k * 4, dep);
                // Perimeter contribution arithmetic per child.
                sum = ctx.alu(sum, hc);
                children[k as usize] = c;
                hs[k as usize] = hc;
            }
            let s2 = ctx.alu(sum, H::NONE);
            let total = ctx.alu(s2, H::NONE);
            // Spill the running perimeter into the activation record.
            accum = (accum + 4) & 0x3FFF;
            ctx.store(stack_base + (depth % 64) * 4, accum, H::NONE, total);
            depth += 1;
            let pick = rng.gen_range(0..4usize);
            if children[pick] == 0 {
                break;
            }
            dep = hs[pick];
            p = children[pick];
        }
    }
    ctx.finish()
}

/// olden.power — the power-system optimization: a wide pointer tree whose
/// leaves carry large FP data crunched with multiply/divide chains.
pub fn power(budget: usize, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = ProgramCtx::new("olden.power");
    let mut heap = ChunkAllocator::new(0x1500_0000, 1 << 21);

    // Leaf: {next, pi, qi, pad}; Branch: {leaf_head, next_branch, pad, pad};
    // Lateral: {branch_head, next_lateral, pad, pad}.
    let n_laterals = 16u32;
    let mut lat_head = 0u32;
    for _ in 0..n_laterals {
        let lat = heap.alloc_aligned(16, 16);
        let mut br_head = 0u32;
        for _ in 0..5 {
            let br = heap.alloc_aligned(16, 16);
            let mut leaf_head = 0u32;
            for _ in 0..10 {
                let leaf = heap.alloc_aligned(16, 16);
                ctx.init_write(leaf, leaf_head);
                ctx.init_write(leaf + 4, big(&mut rng));
                ctx.init_write(leaf + 8, big(&mut rng));
                leaf_head = leaf;
            }
            ctx.init_write(br, leaf_head);
            ctx.init_write(br + 4, br_head);
            br_head = br;
        }
        ctx.init_write(lat, br_head);
        ctx.init_write(lat + 4, lat_head);
        lat_head = lat;
    }

    let l_lat = ctx.label();
    let l_br = ctx.label();
    let l_leaf = ctx.label();
    while ctx.len() < budget {
        let mut lat = lat_head;
        let mut hlat = H::NONE;
        while lat != 0 && ctx.len() < budget {
            ctx.at(l_lat);
            let (hbr0, mut br) = ctx.load(lat, hlat);
            let mut hbr = hbr0;
            while br != 0 && ctx.len() < budget {
                ctx.at(l_br);
                let (hl0, mut leaf) = ctx.load(br, hbr);
                let mut hleaf = hl0;
                while leaf != 0 && ctx.len() < budget + 32 {
                    ctx.at(l_leaf);
                    let (hpi, _pi) = ctx.load(leaf + 4, hleaf);
                    let (hqi, _qi) = ctx.load(leaf + 8, hleaf);
                    let d = ctx.fdiv(hpi, hqi);
                    let m = ctx.fmul(d, hpi);
                    let s = ctx.falu(m, hqi);
                    ctx.store(leaf + 4, big(&mut rng), hleaf, s);
                    let (hn, next) = ctx.load(leaf, hleaf);
                    ctx.branch(next != 0, hn);
                    leaf = next;
                    hleaf = hn;
                }
                let (hnb, nb) = ctx.load(br + 4, hbr);
                br = nb;
                hbr = hnb;
            }
            let (hnl, nl) = ctx.load(lat + 4, hlat);
            lat = nl;
            hlat = hnl;
        }
    }
    ctx.finish()
}

/// olden.treeadd — recursive sum over a binary tree: the canonical
/// pointer-chase microkernel (two pointer loads + one value load per node).
pub fn treeadd(budget: usize, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = ProgramCtx::new("olden.treeadd");
    let mut heap = ChunkAllocator::new(0x1600_0000, 1 << 22);

    // Node: {left, right, value, pad}, allocated in depth-first order as
    // the original's recursive TreeAlloc does — a node's left child is its
    // immediate heap neighbour, so child pointers usually share the chunk.
    fn build(
        heap: &mut ChunkAllocator,
        ctx: &mut ProgramCtx,
        rng: &mut SmallRng,
        depth: u32,
    ) -> u32 {
        let a = heap.alloc_aligned(16, 16);
        let l = if depth > 1 {
            build(heap, ctx, rng, depth - 1)
        } else {
            0
        };
        let r = if depth > 1 {
            build(heap, ctx, rng, depth - 1)
        } else {
            0
        };
        ctx.init_write(a, l);
        ctx.init_write(a + 4, r);
        ctx.init_write(a + 8, small(rng, 100));
        a
    }
    let root = build(&mut heap, &mut ctx, &mut rng, 15);

    // The recursion's spill area: the right-child pointer is saved across
    // the left-subtree call and reloaded afterwards, exactly as a compiled
    // recursive treeadd would do.
    let stack_base = 0x1680_0000u32;
    let body = ctx.label();
    while ctx.len() < budget {
        let mut stack = vec![(root, H::NONE)];
        let mut acc = H::NONE;
        while let Some((p, dep)) = stack.pop() {
            if ctx.len() >= budget + 64 {
                break;
            }
            ctx.at(body);
            let sp = (stack.len() as u32) % 128;
            let (hl, l) = ctx.load(p, dep);
            let (hr, r) = ctx.load(p + 4, dep);
            let (hv, _v) = ctx.load(p + 8, dep);
            // Frame arithmetic + callee-save spill of the right child.
            let f1 = ctx.alu(dep, H::NONE);
            let f2 = ctx.alu(f1, H::NONE);
            acc = ctx.alu(acc, hv);
            acc = ctx.alu(acc, f2);
            ctx.branch(l != 0, hl);
            if r != 0 {
                ctx.store(stack_base + sp * 8, r, H::NONE, hr);
            }
            if l != 0 {
                stack.push((l, hl));
            }
            if r != 0 {
                stack.push((r, hr));
            }
        }
    }
    ctx.finish()
}

/// olden.tsp — travelling salesman over a doubly-linked tour of 2-D points
/// with FP distance math and occasional 2-opt pointer swaps.
pub fn tsp(budget: usize, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = ProgramCtx::new("olden.tsp");
    let mut heap = ChunkAllocator::new(0x1700_0000, 1 << 21);

    // City: {next, prev, x, y} — x/y large FP patterns.
    let n = 8192u32;
    let cities: Vec<u32> = (0..n).map(|_| heap.alloc_aligned(16, 16)).collect();
    for i in 0..n as usize {
        let a = cities[i];
        ctx.init_write(a, cities[(i + 1) % n as usize]);
        ctx.init_write(a + 4, cities[(i + n as usize - 1) % n as usize]);
        ctx.init_write(a + 8, big(&mut rng));
        ctx.init_write(a + 12, big(&mut rng));
    }

    let walk = ctx.label();
    let mut p = cities[0];
    let mut dep = H::NONE;
    while ctx.len() < budget {
        ctx.at(walk);
        let (hx, _x) = ctx.load(p + 8, dep);
        let (hy, _y) = ctx.load(p + 12, dep);
        let (hn, next) = ctx.load(p, dep);
        let (hx2, _) = ctx.load(next + 8, hn);
        let (hy2, _) = ctx.load(next + 12, hn);
        let dx = ctx.falu(hx, hx2);
        let dy = ctx.falu(hy, hy2);
        let dx2 = ctx.fmul(dx, dx);
        let dy2 = ctx.fmul(dy, dy);
        let dist = ctx.falu(dx2, dy2);
        let acc1 = ctx.alu(dist, H::NONE);
        ctx.alu(acc1, H::NONE);
        let improve = rng.gen_bool(0.05);
        ctx.branch(improve, dist);
        if improve {
            // 2-opt-ish: splice `next` out and reinsert after a random city.
            let (hnn, nn) = ctx.load(next, hn);
            if nn != 0 && nn != p {
                let q = cities[rng.gen_range(0..n as usize)];
                if q != p && q != next && q != nn {
                    ctx.store(p, nn, dep, hnn); // p.next = nn
                    ctx.store(nn + 4, p, hnn, dep); // nn.prev = p
                    let (hqn, qn) = ctx.load(q, H::NONE);
                    ctx.store(next, qn, hn, hqn); // next.next = q.next
                    ctx.store(next + 4, q, hn, H::NONE);
                    ctx.store(q, next, H::NONE, hn); // q.next = next
                    if qn != 0 {
                        ctx.store(qn + 4, next, hqn, hn);
                    }
                    p = nn;
                    dep = hnn;
                    continue;
                }
            }
        }
        p = next;
        dep = hn;
    }
    ctx.finish()
}
