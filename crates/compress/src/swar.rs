//! Line-at-a-time classification kernels: the packed-lane (SWAR / SIMD)
//! implementations behind [`line_compress_mask`](crate::line_compress_mask)
//! and the per-word scalar scan they are tested against.
//!
//! The paper's compressibility predicate is pure bitwise math over 32-bit
//! words, so a whole line classifies in one pass over packed lanes:
//!
//! * **small value** — bits 31..=14 uniform. The bitwise derivative
//!   `d = v ^ (v >> 1)` has `d[i] = v[i] ^ v[i+1]` for `i < 31`, so the
//!   rule is exactly `d & 0x7FFF_C000 == 0` (bits 14..=30 of the
//!   derivative). The in-lane right shift may smear a neighbouring lane's
//!   low bit into bit 31, but bit 31 is outside the tested field.
//! * **pointer** — bits 31..=15 equal those of the storage address:
//!   `(v ^ addr) & 0xFFFF_8000 == 0`, with per-word addresses
//!   `base + 4*i` packed alongside the values.
//!
//! Per-lane "field is non-zero" uses the guarded borrow trick
//! `(((x | TOP) - ONE) | x) & TOP`: OR-ing the lane top bit makes every
//! lane at least 2³¹ so the `- 1` per lane can never borrow across a lane
//! boundary, and the final `| x` repairs the one case (`x == 0x8000_0000`)
//! where the subtraction alone would report zero. The widely known
//! byte-wise `(v - K) & !v & TOP` haszero trick is *not* positionally
//! exact (borrows propagate between lanes) and is deliberately avoided.
//!
//! Three kernels are always compiled where the target allows:
//! the per-word scalar scan (the pre-overhaul loop, kept as the oracle),
//! a two-lane u64 SWAR pass, and — on x86-64, where SSE2 is part of the
//! baseline ISA — a four-lane `core::arch` path. [`cpp_line_mask_swar`]
//! picks the widest of the packed two at compile time and is the one the
//! hierarchies run. The tests below and `tests/proptests.rs` prove every
//! kernel agrees with the scalar scan on every input class, and
//! `repro difftest` checks the packed kernel over whole traces against
//! the reference engine, which classifies word by word.

use crate::{compressible_bit, Addr, Word, WORD_BYTES};

/// Top bit of each 32-bit lane in a two-lane u64.
pub const LANE_TOP: u64 = 0x8000_0000_8000_0000;

/// One in each 32-bit lane of a two-lane u64.
pub const LANE_ONE: u64 = 0x0000_0001_0000_0001;

/// Packs two words into a two-lane u64 (`lo` in bits 0..=31).
#[inline]
pub fn pack2(lo: Word, hi: Word) -> u64 {
    u64::from(lo) | (u64::from(hi) << 32)
}

/// Packs the storage addresses of two consecutive words starting at `addr`.
#[inline]
pub fn pack2_addrs(addr: Addr) -> u64 {
    pack2(addr, addr.wrapping_add(WORD_BYTES))
}

/// Per-lane non-zero test: returns [`LANE_TOP`] bits set exactly for the
/// 32-bit lanes of `x` that are non-zero (the guarded borrow trick; see
/// the module docs for why the classic haszero trick is wrong here).
#[inline]
pub fn lane_nonzero(x: u64) -> u64 {
    (((x | LANE_TOP) - LANE_ONE) | x) & LANE_TOP
}

/// Per-lane wrapping subtraction `x - y` on two 32-bit lanes.
///
/// Standard SWAR borrow containment: force the top bit of each `x` lane
/// high and strip it from `y` so the machine-wide subtraction cannot
/// borrow across the lane boundary, then patch the true top bits back in.
#[inline]
pub fn lane_sub(x: u64, y: u64) -> u64 {
    ((x | LANE_TOP) - (y & !LANE_TOP)) ^ ((x ^ !y) & LANE_TOP)
}

/// Per-word scalar line scan — the pre-overhaul kernel, kept always
/// compiled as the oracle the packed kernels are proven against.
#[inline]
pub fn cpp_line_mask_scalar(words: &[Word], base: Addr) -> u32 {
    debug_assert!(words.len() <= 32, "flag masks hold at most 32 words");
    let mut mask = 0u32;
    let mut bit = 1u32;
    let mut addr = base;
    for &w in words {
        mask |= bit & compressible_bit(w, addr).wrapping_neg();
        bit = bit.wrapping_shl(1);
        addr = addr.wrapping_add(WORD_BYTES);
    }
    mask
}

/// Derivative field of the small-value rule per lane: bits 14..=30 of
/// `v ^ (v >> 1)` are zero iff bits 31..=14 of the lane are uniform.
const SMALL_FIELD2: u64 = 0x7FFF_C000_7FFF_C000;

/// Pointer-rule field per lane: bits 31..=15.
const PTR_FIELD2: u64 = 0xFFFF_8000_FFFF_8000;

/// Two-lane u64 SWAR line scan (portable packed kernel).
#[inline]
pub fn cpp_line_mask_u64(words: &[Word], base: Addr) -> u32 {
    debug_assert!(words.len() <= 32, "flag masks hold at most 32 words");
    let mut mask64 = 0u64;
    let mut addr = base;
    let mut i = 0usize;
    while i + 2 <= words.len() {
        let v = pack2(words[i], words[i + 1]);
        let a = pack2_addrs(addr);
        let small_f = (v ^ (v >> 1)) & SMALL_FIELD2;
        let ptr_f = (v ^ a) & PTR_FIELD2;
        // Incompressible iff BOTH fields are non-zero in that lane.
        let good = !(lane_nonzero(small_f) & lane_nonzero(ptr_f)) & LANE_TOP;
        mask64 |= ((good >> 31) & 1) << i;
        mask64 |= ((good >> 63) & 1) << (i + 1);
        addr = addr.wrapping_add(2 * WORD_BYTES);
        i += 2;
    }
    if i < words.len() {
        mask64 |= u64::from(compressible_bit(words[i], addr)) << i;
    }
    // ccp-lint: allow(no-lossy-cast-in-hot-path) — mask64 only holds bits 0..words.len() <= 32; the conversion is exact
    (mask64 & 0xFFFF_FFFF) as u32
}

/// Four-lane SSE2 line scan. SSE2 is part of the x86-64 baseline ISA, so
/// this compiles whenever the target does — no runtime feature detection.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[inline]
pub fn cpp_line_mask_simd(words: &[Word], base: Addr) -> u32 {
    use core::arch::x86_64::*;
    debug_assert!(words.len() <= 32, "flag masks hold at most 32 words");
    let mut mask = 0u32;
    let mut i = 0usize;
    let mut addr = base;
    // SAFETY: SSE2 is statically enabled (cfg gate above); every load is
    // `_mm_loadu_si128` on a pointer derived from an in-bounds slice range
    // (`i + 4 <= words.len()`), so no alignment or bounds assumption is made.
    unsafe {
        // Same-width u32→i32 reinterpretations satisfy the intrinsic
        // signatures; nothing is truncated.
        let small_field = _mm_set1_epi32(0x7FFF_C000u32 as i32);
        let ptr_field = _mm_set1_epi32(0xFFFF_8000u32 as i32);
        let zero = _mm_setzero_si128();
        let lane_off = _mm_setr_epi32(0, 4, 8, 12);
        while i + 4 <= words.len() {
            let v = _mm_loadu_si128(words.as_ptr().add(i).cast::<__m128i>());
            let a = _mm_add_epi32(_mm_set1_epi32(addr as i32), lane_off);
            let small_f = _mm_and_si128(_mm_xor_si128(v, _mm_srli_epi32::<1>(v)), small_field);
            let ptr_f = _mm_and_si128(_mm_xor_si128(v, a), ptr_field);
            let good = _mm_or_si128(_mm_cmpeq_epi32(small_f, zero), _mm_cmpeq_epi32(ptr_f, zero));
            let lanes = _mm_movemask_ps(_mm_castsi128_ps(good));
            // ccp-lint: allow(no-lossy-cast-in-hot-path) — movemask yields a 4-bit lane mask (0..=15); widening i32→u32 truncates nothing
            mask |= (lanes as u32) << i;
            addr = addr.wrapping_add(4 * WORD_BYTES);
            i += 4;
        }
    }
    while i < words.len() {
        mask |= compressible_bit(words[i], addr) << i;
        addr = addr.wrapping_add(WORD_BYTES);
        i += 1;
    }
    mask
}

/// The packed-lane kernel: the widest path the target supports.
#[inline]
pub fn cpp_line_mask_swar(words: &[Word], base: Addr) -> u32 {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        cpp_line_mask_simd(words, base)
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    {
        cpp_line_mask_u64(words, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kernels(words: &[Word], base: Addr) -> Vec<(&'static str, u32)> {
        let mut out = vec![
            ("scalar", cpp_line_mask_scalar(words, base)),
            ("u64", cpp_line_mask_u64(words, base)),
            ("swar", cpp_line_mask_swar(words, base)),
        ];
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        out.push(("simd", cpp_line_mask_simd(words, base)));
        out
    }

    fn assert_agree(words: &[Word], base: Addr) {
        let ks = all_kernels(words, base);
        for (name, mask) in &ks {
            assert_eq!(
                *mask, ks[0].1,
                "{name} kernel disagrees with scalar on {words:?} @ {base:#x}"
            );
        }
    }

    #[test]
    fn kernels_agree_on_boundary_values() {
        let words: Vec<Word> = [
            0u32,
            1,
            16383,              // SMALL_MAX
            16384,              // one past SMALL_MAX
            (-16384i32) as u32, // SMALL_MIN
            (-16385i32) as u32, // one past SMALL_MIN
            0x8000_0000,        // lane-top edge of the nonzero trick
            0x7FFF_FFFF,
            0xFFFF_FFFF,
            0x0000_8000,
            0x4000_1234, // pointer into chunk 0x4000_0000
            0xDEAD_BEEF,
            2,
            0x0000_4000,
            0xFFFF_C000,
            0x8000_4000,
        ]
        .to_vec();
        for base in [0u32, 0x4000_0000, 0x4000_0040, 0xFFFF_FFC0, 0x1236] {
            assert_agree(&words, base);
        }
    }

    #[test]
    fn kernels_agree_on_every_length() {
        // The u64 kernel pairs lanes and the SIMD kernel quads them; every
        // residue class of the length exercises a different tail path.
        let words: Vec<Word> = (0..32u32)
            .map(|i| 0x4000_0000u32.wrapping_mul(i).wrapping_add(0x3FFF * i))
            .collect();
        for len in 0..=32usize {
            assert_agree(&words[..len], 0x4000_0000);
        }
    }

    #[test]
    fn kernels_agree_near_address_wraparound() {
        let words = vec![0xFFFF_FFF0u32; 16];
        assert_agree(&words, 0xFFFF_FFC0);
    }

    #[test]
    fn lane_nonzero_is_positionally_exact() {
        // The classic haszero trick fails on e.g. 0x0000_0100 in the high
        // lane; this trick must not.
        for lo in [0u32, 1, 0x100, 0x8000_0000, 0xFFFF_FFFF] {
            for hi in [0u32, 1, 0x100, 0x8000_0000, 0xFFFF_FFFF] {
                let x = pack2(lo, hi);
                let nz = lane_nonzero(x);
                assert_eq!(nz & 0x8000_0000 != 0, lo != 0, "lo lane of {x:#x}");
                assert_eq!(nz >> 63 != 0, hi != 0, "hi lane of {x:#x}");
            }
        }
    }

    #[test]
    fn lane_sub_matches_per_lane_wrapping_sub() {
        let cases = [0u32, 1, 5, 0x8000_0000, 0xFFFF_FFFF, 0x1234_5678];
        for &x0 in &cases {
            for &x1 in &cases {
                for &y0 in &cases {
                    for &y1 in &cases {
                        let got = lane_sub(pack2(x0, x1), pack2(y0, y1));
                        let want = pack2(x0.wrapping_sub(y0), x1.wrapping_sub(y1));
                        assert_eq!(got, want, "({x0:#x},{x1:#x}) - ({y0:#x},{y1:#x})");
                    }
                }
            }
        }
    }
}
