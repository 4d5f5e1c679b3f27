//! Property-based tests for the compression scheme's core invariants.

use ccp_compress::{
    bus_halfwords, classify, compress, decompress, is_compressible, is_same_chunk_pointer,
    is_small, CompressKind, SMALL_MAX, SMALL_MIN,
};
use proptest::prelude::*;

proptest! {
    /// compress → decompress is the identity on every compressible word.
    #[test]
    fn roundtrip_identity(value: u32, addr: u32) {
        let addr = addr & !0x3; // word-aligned storage address
        if let Some(c) = compress(value, addr) {
            prop_assert_eq!(decompress(c, addr), value);
        }
    }

    /// Classification agrees with the two predicate functions.
    #[test]
    fn classify_matches_predicates(value: u32, addr: u32) {
        match classify(value, addr) {
            CompressKind::Small => prop_assert!(is_small(value)),
            CompressKind::Pointer => {
                prop_assert!(!is_small(value));
                prop_assert!(is_same_chunk_pointer(value, addr));
            }
            CompressKind::Incompressible => {
                prop_assert!(!is_small(value));
                prop_assert!(!is_same_chunk_pointer(value, addr));
            }
        }
    }

    /// The small-value rule is exactly the range [-16384, 16383].
    #[test]
    fn small_rule_is_exact_range(value: u32) {
        let as_signed = value as i32;
        prop_assert_eq!(
            is_small(value),
            (SMALL_MIN..=SMALL_MAX).contains(&as_signed)
        );
    }

    /// The pointer rule is invariant under changes to the low 15 bits of the
    /// address, and only those.
    #[test]
    fn pointer_rule_depends_only_on_prefix(value: u32, addr: u32, low in 0u32..0x8000) {
        let same = is_same_chunk_pointer(value, addr);
        prop_assert_eq!(
            is_same_chunk_pointer(value, (addr & !0x7FFF) | low),
            same
        );
    }

    /// Compression never fabricates compressibility: Some(_) iff predicate.
    #[test]
    fn compress_some_iff_compressible(value: u32, addr: u32) {
        prop_assert_eq!(compress(value, addr).is_some(), is_compressible(value, addr));
    }

    /// Bus accounting is 1 half-word for compressible words, 2 otherwise.
    #[test]
    fn bus_accounting_consistent(value: u32, addr: u32) {
        let hw = bus_halfwords(value, addr);
        prop_assert_eq!(hw, if is_compressible(value, addr) { 1 } else { 2 });
    }

    /// Decompression of a small value is address-independent.
    #[test]
    fn small_decompress_address_independent(v in SMALL_MIN..=SMALL_MAX, a1: u32, a2: u32) {
        let c = compress(v as u32, a1).expect("small values always compress");
        prop_assert_eq!(decompress(c, a1), decompress(c, a2));
    }

    /// A pointer decompressed at any address lands in that address's chunk.
    #[test]
    fn pointer_decompress_lands_in_chunk(value: u32, addr: u32) {
        if let Some(c) = compress(value, addr) {
            if c.is_pointer() {
                let out = decompress(c, addr);
                prop_assert_eq!(out >> 15, addr >> 15);
            }
        }
    }

    /// Boundary values: ±16383 and -16384 sit inside the small range,
    /// +16384 and -16385 just outside — and each compressible one
    /// round-trips exactly, at any storage address.
    #[test]
    fn small_boundary_roundtrip(addr: u32) {
        let addr = addr & !0x3;
        for v in [16383i32, -16383, -16384] {
            let w = v as u32;
            prop_assert!(is_small(w), "{v} must be small");
            let c = compress(w, addr).expect("boundary small value compresses");
            prop_assert_eq!(decompress(c, addr), w);
        }
        for v in [16384i32, -16385] {
            prop_assert!(!is_small(v as u32), "{v} must not be small");
        }
    }

    /// The pointer rule flips exactly at the 32 KB chunk edge: the first
    /// and last words of the storage address's chunk qualify, the words
    /// one step outside it on either side never do.
    #[test]
    fn pointer_chunk_edge(chunk in 1u32..0x1FFFF, off in 0u32..0x8000) {
        let base = chunk << 15;
        let addr = base + (off & !0x3);
        prop_assert!(is_same_chunk_pointer(base, addr));
        prop_assert!(is_same_chunk_pointer(base + 0x7FFF, addr));
        prop_assert!(!is_same_chunk_pointer(base - 1, addr));
        prop_assert!(!is_same_chunk_pointer(base + 0x8000, addr));
    }

    /// Metamorphic: flipping the line-address low bit — bit 6 for the
    /// 64-byte L1 line, bit 7 for the 128-byte L2 line — moves a word to
    /// its affiliated line without ever changing its compressibility
    /// class, which is what lets CPP hold affiliated words in freed
    /// half-slots at the same offset.
    #[test]
    fn class_invariant_under_affiliated_flip(value: u32, addr: u32) {
        for line_bit in [0x40u32, 0x80] {
            prop_assert_eq!(classify(value, addr), classify(value, addr ^ line_bit));
        }
    }
}

/// A word strategy biased toward the classification boundaries: the
/// ±16383/∓16384 small-value edges, the pointer-prefix edges around an
/// arbitrary base, sign/zero corners, and uniform noise.
fn boundary_word(base: u32) -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(16383u32),
        Just((-16384i32) as u32),
        Just(16384u32),
        Just((-16385i32) as u32),
        Just(0u32),
        Just(0x8000_0000u32),
        Just(0xFFFF_FFFFu32),
        // pointer-rule edges: same 32 KB chunk as the base, then one out
        Just(base & 0xFFFF_8000),
        Just((base & 0xFFFF_8000) | 0x7FFF),
        Just((base & 0xFFFF_8000).wrapping_sub(1)),
        Just((base & 0xFFFF_8000).wrapping_add(0x8000)),
        any::<u32>(),
    ]
}

/// Per-word oracle for [`ccp_compress::line_compress_mask`]: bit *i* set
/// iff `words[i]`, stored at `base + 4*i`, passes [`is_compressible`].
fn per_word_mask(words: &[u32], base: u32) -> u32 {
    words.iter().enumerate().fold(0, |mask, (i, &w)| {
        let addr = base.wrapping_add(4 * i as u32);
        mask | u32::from(is_compressible(w, addr)) << i
    })
}

/// A word-aligned line base, one time in four within the top 128 bytes of
/// the address space so the line's word addresses wrap past zero.
fn line_base() -> impl Strategy<Value = u32> {
    prop_oneof![3 => any::<u32>(), 1 => 0xFFFF_FF80u32..=u32::MAX].prop_map(|b| b & !0x3)
}

// The line kernel is the per-word predicate folded over the line, on
// arbitrary lines of every length a flag mask holds and on lines built
// from the classification boundaries.
proptest! {
    /// `line_compress_mask` ≡ per-word `is_compressible` on arbitrary
    /// word mixes, including lines that wrap the address space.
    #[test]
    fn line_kernels_agree(
        base in line_base(),
        words in prop::collection::vec(any::<u32>(), 0..33)
    ) {
        prop_assert_eq!(
            ccp_compress::line_compress_mask(&words, base),
            per_word_mask(&words, base),
            "line kernel vs predicate at base {:#x}", base
        );
    }

    /// Same agreement on boundary-biased lines: the small-value edges,
    /// the pointer-rule chunk edges around the base, and sign/zero
    /// corners, where an off-by-one in a shift or field would show up.
    #[test]
    fn line_kernels_agree_on_boundary_mixes(base in line_base(), seed: u32) {
        // Derive a 16-word line from the seed via the boundary strategy's
        // value table (deterministic expansion keeps this case cheap).
        let table = [
            16383u32,
            (-16384i32) as u32,
            16384u32,
            (-16385i32) as u32,
            0,
            0x8000_0000,
            0xFFFF_FFFF,
            base & 0xFFFF_8000,
            (base & 0xFFFF_8000) | 0x7FFF,
            (base & 0xFFFF_8000).wrapping_sub(1),
            (base & 0xFFFF_8000).wrapping_add(0x8000),
            seed,
        ];
        let words: Vec<u32> = (0..16)
            .map(|i| table[(seed.rotate_right(2 * i) as usize ^ i as usize) % table.len()])
            .collect();
        prop_assert_eq!(
            ccp_compress::line_compress_mask(&words, base),
            per_word_mask(&words, base)
        );
    }

    /// Metamorphic (`class_invariant_under_affiliated_flip`, lifted to
    /// whole lines):
    /// flipping the L1 or L2 line bit of the base moves the whole line to
    /// its affiliated location and must leave the compressibility mask
    /// unchanged.
    #[test]
    fn line_mask_invariant_under_affiliated_flip(
        base: u32,
        words in prop::collection::vec(boundary_word(0x1234_5678), 16..17)
    ) {
        let base = base & !0x3;
        for line_bit in [0x40u32, 0x80] {
            prop_assert_eq!(
                ccp_compress::line_compress_mask(&words, base),
                ccp_compress::line_compress_mask(&words, base ^ line_bit)
            );
        }
    }
}
