//! Property-based tests for the pluggable compression schemes, mirroring
//! the `ccp-compress` proptests: the metamorphic `encode ∘ decode = id`
//! law across every scheme, each scheme's line mask as the fold of its
//! word predicate, BDI's base+delta boundary behavior, and FPC's
//! pattern-class edges.

use ccp_schemes::{
    BdiScheme, CompressionScheme, CppScheme, FpcScheme, SchemeKind, FPC_MAX, FPC_MIN,
    FPC_PAYLOAD_BITS,
};
use proptest::prelude::*;

/// Word-aligns an arbitrary address.
fn align(addr: u32) -> u32 {
    addr & !0x3
}

/// The metamorphic law every scheme must satisfy: whenever `encode`
/// accepts a word, `decode` must reproduce it exactly, and acceptance
/// must agree with the predicate.
fn scheme_laws<S: CompressionScheme>(value: u32, addr: u32, base_addr: u32, base_val: u32) {
    let c = S::word_compressible(value, addr, base_addr, base_val);
    let enc = S::encode(value, addr, base_addr, base_val);
    assert_eq!(
        enc.is_some(),
        c,
        "{}: encode acceptance must match the predicate",
        S::NAME
    );
    if let Some(half) = enc {
        assert_eq!(
            S::decode(half, addr, base_addr, base_val),
            value,
            "{}: encode∘decode must be the identity",
            S::NAME
        );
    }
}

proptest! {
    /// encode ∘ decode = id for every scheme, on arbitrary words, at
    /// arbitrary positions relative to an arbitrary base word.
    #[test]
    fn all_schemes_roundtrip_identity(value: u32, addr: u32, base_off in 0u32..16, base_val: u32) {
        let addr = align(addr);
        let base_addr = addr.wrapping_sub(base_off * 4);
        scheme_laws::<CppScheme>(value, addr, base_addr, base_val);
        scheme_laws::<BdiScheme>(value, addr, base_addr, base_val);
        scheme_laws::<FpcScheme>(value, addr, base_addr, base_val);
    }

    /// BDI base+delta boundaries: a non-base word compresses via delta
    /// exactly when its wrapping difference from the base value fits a
    /// 15-bit signed integer — probed densely around the ±16384 edge.
    #[test]
    fn bdi_delta_boundary_is_exact(base_val: u32, edge in -16_390i64..=16_390) {
        let base_addr = 0x1000u32;
        let addr = base_addr + 4; // non-base slot: delta applies
        let value = base_val.wrapping_add(edge as u32);
        let delta = value.wrapping_sub(base_val) as i32;
        let delta_fits = (-16_384..=16_383).contains(&delta);
        let small = (-16_384..=16_383).contains(&(value as i32));
        prop_assert_eq!(
            BdiScheme::word_compressible(value, addr, base_addr, base_val),
            delta_fits || small,
            "value {:#x} base {:#x} delta {}", value, base_val, delta
        );
        if delta_fits || small {
            let half = BdiScheme::encode(value, addr, base_addr, base_val).unwrap();
            prop_assert_eq!(BdiScheme::decode(half, addr, base_addr, base_val), value);
        }
    }

    /// BDI's base word never uses delta form: at `addr == base_addr` the
    /// scheme accepts exactly the 15-bit immediates, whatever the base
    /// value register happens to hold.
    #[test]
    fn bdi_base_word_is_immediate_only(value: u32, stale_base: u32) {
        let base_addr = align(0x4000);
        let small = (-16_384..=16_383).contains(&(value as i32));
        prop_assert_eq!(
            BdiScheme::word_compressible(value, base_addr, base_addr, stale_base),
            small
        );
    }

    /// FPC accepts exactly the union of its pattern classes: 13-bit
    /// sign-extended immediates and repeated-byte words.
    #[test]
    fn fpc_acceptance_is_exactly_its_classes(value: u32, addr: u32) {
        let addr = align(addr);
        let narrow = (FPC_MIN..=FPC_MAX).contains(&(value as i32));
        let repeated = value == value.rotate_left(8);
        prop_assert_eq!(
            FpcScheme::word_compressible(value, addr, 0, 0),
            narrow || repeated
        );
    }

    /// FPC classifies every narrow value into the narrowest class that
    /// holds it, and decode inverts every class — probed across the
    /// SE4/SE8/SE13 boundaries.
    #[test]
    fn fpc_narrowest_class_roundtrips(v in -4096i32..=4095) {
        let value = v as u32;
        let half = FpcScheme::encode(value, 0, 0, 0).unwrap();
        let class = half >> FPC_PAYLOAD_BITS;
        let expected = if value == 0 {
            0b000
        } else if (-8..=7).contains(&v) {
            0b001
        } else if (-128..=127).contains(&v) {
            0b010
        } else {
            0b011
        };
        prop_assert_eq!(class, expected, "value {} got class {:#b}", v, class);
        prop_assert_eq!(FpcScheme::decode(half, 0, 0, 0), value);
    }

    /// The CPP scheme is exactly the paper's kernel: agreement with
    /// `ccp_compress` on every word, so the generic substrate can never
    /// drift from the difftested reference semantics.
    #[test]
    fn cpp_scheme_is_the_paper_kernel(value: u32, addr: u32, base_val: u32) {
        let addr = align(addr);
        prop_assert_eq!(
            CppScheme::word_compressible(value, addr, 0, base_val),
            ccp_compress::is_compressible(value, addr)
        );
        prop_assert_eq!(
            CppScheme::encode(value, addr, 0, base_val),
            ccp_compress::compress(value, addr).map(|c| c.0)
        );
    }

    /// A zero line is fully compressible under every scheme — the shared
    /// floor the hierarchy's Zero-view fast path relies on.
    #[test]
    fn zero_line_fully_compressible_everywhere(base in 0u32..0x1000_0000) {
        let base = base & !0x3F;
        let words = [0u32; 16];
        for kind in SchemeKind::ALL {
            let mask = match kind {
                SchemeKind::Cpp => CppScheme::line_mask(&words, base),
                SchemeKind::Bdi => BdiScheme::line_mask(&words, base),
                SchemeKind::Fpc => FpcScheme::line_mask(&words, base),
            };
            prop_assert_eq!(mask, 0xFFFF, "{}", kind.name());
        }
    }
}

/// Independent per-word oracle for `S::line_mask`: bit *i* set iff
/// `words[i]`, stored at `base + 4*i`, passes `S::word_compressible`
/// against the line's word 0.
fn per_word_mask<S: CompressionScheme>(words: &[u32], base: u32) -> u32 {
    let base_val = words.first().copied().unwrap_or(0);
    words.iter().enumerate().fold(0, |mask, (i, &w)| {
        let addr = base.wrapping_add(4 * i as u32);
        mask | u32::from(S::word_compressible(w, addr, base, base_val)) << i
    })
}

/// Asserts `S::line_mask` ≡ the per-word fold on one line.
fn line_mask_is_per_word_fold<S: CompressionScheme>(words: &[u32], base: u32) {
    assert_eq!(
        S::line_mask(words, base),
        per_word_mask::<S>(words, base),
        "{}: line mask vs per-word predicate on {words:#x?} @ {base:#x}",
        S::NAME
    );
}

/// A word-aligned line base, one time in four within the top 128 bytes of
/// the address space so the line's word addresses wrap past zero.
fn line_base() -> impl Strategy<Value = u32> {
    prop_oneof![3 => any::<u32>(), 1 => 0xFFFF_FF80u32..=u32::MAX].prop_map(align)
}

proptest! {
    /// BDI: `line_mask` ≡ the per-word fold on arbitrary lines of every
    /// length a flag mask holds, including lines that wrap past zero.
    #[test]
    fn bdi_line_kernels_agree(
        base in line_base(),
        words in prop::collection::vec(any::<u32>(), 0..33)
    ) {
        line_mask_is_per_word_fold::<BdiScheme>(&words, base);
    }

    /// FPC: `line_mask` ≡ the per-word fold on arbitrary lines of every
    /// length a flag mask holds, including lines that wrap past zero.
    #[test]
    fn fpc_line_kernels_agree(
        base in line_base(),
        words in prop::collection::vec(any::<u32>(), 0..33)
    ) {
        line_mask_is_per_word_fold::<FpcScheme>(&words, base);
    }

    /// Every scheme's `line_mask` is its word predicate folded over the
    /// line, on arbitrary lines of every length a flag mask holds and on
    /// boundary-biased 16-word lines: the FPC ±4096 narrow edges, BDI's
    /// ±16384 immediate/delta edges, repeated-byte patterns one bit away
    /// from qualifying, and base-relative deltas. CPP's `line_mask` is
    /// `ccp_compress::line_compress_mask` on both.
    #[test]
    fn scheme_line_kernels_agree_on_boundary_mixes(
        base in line_base(),
        seed: u32,
        words in prop::collection::vec(any::<u32>(), 0..33)
    ) {
        let table = [
            (FPC_MAX as u32),
            (FPC_MIN as u32),
            (FPC_MAX as u32).wrapping_add(1),
            (FPC_MIN as u32).wrapping_sub(1),
            16383u32,
            (-16384i32) as u32,
            16384u32,
            (-16385i32) as u32,
            0xABAB_ABABu32,
            0xAB00_ABABu32,
            0u32,
            0x8000_0000u32,
            seed,
            base.wrapping_add(0x3FFE),
            base.wrapping_sub(0x4000),
        ];
        let boundary: Vec<u32> = (0..16)
            .map(|i| table[(seed.rotate_right(2 * i) as usize ^ i as usize) % table.len()])
            .collect();
        for line in [&words, &boundary] {
            line_mask_is_per_word_fold::<CppScheme>(line, base);
            line_mask_is_per_word_fold::<BdiScheme>(line, base);
            line_mask_is_per_word_fold::<FpcScheme>(line, base);
            prop_assert_eq!(
                CppScheme::line_mask(line, base),
                ccp_compress::line_compress_mask(line, base)
            );
        }
    }
}
