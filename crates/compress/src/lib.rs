#![warn(missing_docs)]

//! Value compression model from *Enabling Partial Cache Line Prefetching
//! Through Data Compression* (Zhang & Gupta, ICPP 2003).
//!
//! A 32-bit word is **compressible** down to 16 bits iff either
//!
//! 1. its 18 high-order bits (bits 31..=14) are all zeros or all ones —
//!    a *small value* in the range `[-16384, 16383]`, or
//! 2. its 17 high-order bits (bits 31..=15) equal the 17 high-order bits of
//!    the **address the word is stored at** — a *pointer* into the same
//!    32 KB-aligned memory chunk.
//!
//! The compressed form packs a one-bit `VT` tag (bit 15; `1` = pointer,
//! `0` = small value) with the 15 low-order bits of the original value.
//! A separate `VC` (value-compressed) flag, stored *outside* the value,
//! records whether a word is held in compressed form; in the cache designs
//! that flag is the per-word `VCP` bit.
//!
//! Decompression needs only the compressed half-word plus the address it was
//! read from: small values are sign-extended from bit 14, pointers borrow the
//! 17-bit prefix of their own storage address.

pub mod fvc;
pub mod profile;
pub mod swar;

/// A 32-bit machine word, the unit the compression scheme operates on.
pub type Word = u32;

/// A 32-bit byte address.
pub type Addr = u32;

/// Number of bytes in a machine word.
pub const WORD_BYTES: u32 = 4;

/// Number of low-order value bits kept by the compressed form.
pub const PAYLOAD_BITS: u32 = 15;

/// Number of high-order bits that must be uniform for the small-value rule
/// (bits 31..=14, i.e. everything above the 14 payload bits + sign bit).
pub const SMALL_PREFIX_BITS: u32 = 18;

/// Number of high-order bits a pointer must share with its storage address
/// (bits 31..=15). `2^15 = 32 KB` chunks.
pub const POINTER_PREFIX_BITS: u32 = 17;

/// Mask selecting the 15-bit payload of a compressed half-word.
pub const PAYLOAD_MASK: u16 = 0x7FFF;

/// Bit 15 of the compressed half-word: the `VT` tag (1 = pointer).
pub const VT_BIT: u16 = 0x8000;

/// Inclusive lower bound of the small-value range.
pub const SMALL_MIN: i32 = -16384;

/// Inclusive upper bound of the small-value range.
pub const SMALL_MAX: i32 = 16383;

/// How a word was (or was not) compressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressKind {
    /// 18 high-order bits all equal: value in `[-16384, 16383]`.
    Small,
    /// 17 high-order bits equal to those of the storage address.
    Pointer,
    /// Neither rule applies; the word stays uncompressed.
    Incompressible,
}

impl CompressKind {
    /// `true` for [`CompressKind::Small`] and [`CompressKind::Pointer`].
    #[inline]
    pub fn is_compressible(self) -> bool {
        !matches!(self, CompressKind::Incompressible)
    }
}

/// A compressed 16-bit half-word: `VT` tag in bit 15, 15-bit payload below.
///
/// Only produced by [`compress`]; pairing it back with the storage address in
/// [`decompress`] reconstructs the original word exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Compressed(pub u16);

impl Compressed {
    /// The `VT` tag: `true` when the payload is a pointer fragment.
    #[inline]
    pub fn is_pointer(self) -> bool {
        self.0 & VT_BIT != 0
    }

    /// The 15 low-order bits of the original value.
    #[inline]
    pub fn payload(self) -> u16 {
        self.0 & PAYLOAD_MASK
    }
}

/// Returns `true` iff the 18 high-order bits of `value` are all zeros or all
/// ones (the small-value rule).
#[inline]
pub fn is_small(value: Word) -> bool {
    // Arithmetic shift replicates bit 31; a small value has bits 31..=14 all
    // equal, i.e. shifting out the low 14 bits leaves all-zeros or all-ones.
    let hi = (value as i32) >> (32 - SMALL_PREFIX_BITS);
    hi == 0 || hi == -1
}

/// Returns `true` iff `value` shares its 17 high-order bits with `addr`
/// (the pointer rule: both live in the same 32 KB chunk).
#[inline]
pub fn is_same_chunk_pointer(value: Word, addr: Addr) -> bool {
    (value ^ addr) >> (32 - POINTER_PREFIX_BITS) == 0
}

/// Classifies `value`, stored at byte address `addr`, under the paper's
/// compression scheme.
///
/// When both rules apply the small-value rule wins; a deterministic priority
/// keeps compress/decompress a bijection.
#[inline]
pub fn classify(value: Word, addr: Addr) -> CompressKind {
    if is_small(value) {
        CompressKind::Small
    } else if is_same_chunk_pointer(value, addr) {
        CompressKind::Pointer
    } else {
        CompressKind::Incompressible
    }
}

/// `true` iff the word can be held in 16 bits (either rule).
#[inline]
pub fn is_compressible(value: Word, addr: Addr) -> bool {
    classify(value, addr).is_compressible()
}

/// Branch-free compressibility test: `1` when either rule applies, else `0`.
///
/// Same decision as [`is_compressible`], expressed as mask arithmetic (the
/// comparisons lower to flag-setting instructions, not branches) so the
/// per-line scan in [`line_compress_mask`] runs without a data-dependent
/// branch per word — the word values a simulated program produces are
/// exactly the kind of unpredictable input that makes a branchy check
/// mispredict.
#[inline]
pub fn compressible_bit(value: Word, addr: Addr) -> u32 {
    // Small: bits 31..=14 uniform — the arithmetic shift leaves 0 or -1.
    let hi = (value as i32) >> (32 - SMALL_PREFIX_BITS);
    let small = u32::from(hi == 0) | u32::from(hi == -1);
    // Pointer: bits 31..=15 equal those of the storage address.
    let ptr = u32::from((value ^ addr) >> (32 - POINTER_PREFIX_BITS) == 0);
    small | ptr
}

/// Compressibility mask of a whole line: bit *i* is set iff `words[i]`,
/// stored at `base + 4*i`, is compressible.
///
/// This is the hot kernel of the cache hierarchies — every fill, merge,
/// park, and promotion classifies a full line — so it takes the line as a
/// slice (one page-table walk in the caller) and classifies all 16 words
/// of an L1 line in one pass over packed lanes (see [`swar`]), which the
/// kernel tests prove mask-identical to the per-word scalar scan.
///
/// # Panics
/// Debug-asserts `words.len() <= 32` (flag masks are 32 bits wide).
#[inline]
pub fn line_compress_mask(words: &[Word], base: Addr) -> u32 {
    swar::cpp_line_mask_swar(words, base)
}

/// Compresses `value` (stored at `addr`) to its 16-bit form, or `None` when
/// the word is incompressible.
///
/// # Examples
///
/// ```
/// use ccp_compress::{compress, decompress};
///
/// // A small value compresses anywhere and round-trips exactly.
/// let c = compress(-42i32 as u32, 0x1000).expect("small value");
/// assert_eq!(decompress(c, 0x1000), -42i32 as u32);
///
/// // A pointer compresses only against an address in its own 32 KB chunk.
/// let ptr = 0x4000_1234u32;
/// assert!(compress(ptr, 0x4000_0040).is_some());
/// assert!(compress(ptr, 0x9000_0040).is_none());
/// ```
#[inline]
pub fn compress(value: Word, addr: Addr) -> Option<Compressed> {
    match classify(value, addr) {
        // ccp-lint: allow(no-lossy-cast-in-hot-path) — classify() just proved the high bits are redundant; the truncation IS the compression
        CompressKind::Small => Some(Compressed((value as u16) & PAYLOAD_MASK)),
        // ccp-lint: allow(no-lossy-cast-in-hot-path) — classify() just proved bits 31..=15 match the storage address
        CompressKind::Pointer => Some(Compressed(((value as u16) & PAYLOAD_MASK) | VT_BIT)),
        CompressKind::Incompressible => None,
    }
}

/// Reconstructs the original word from its compressed form and the address
/// it is stored at.
///
/// Small values sign-extend bit 14; pointers take bits 31..=15 from `addr`.
#[inline]
pub fn decompress(c: Compressed, addr: Addr) -> Word {
    let payload = u32::from(c.payload());
    if c.is_pointer() {
        (addr & !(u32::from(PAYLOAD_MASK))) | payload
    } else {
        // Sign-extend bit 14 over bits 31..=15.
        // ccp-lint: allow(no-lossy-cast-in-hot-path) — same-width i32↔u32 reinterpretation for the arithmetic shift; nothing is truncated
        (((payload << (32 - PAYLOAD_BITS)) as i32) >> (32 - PAYLOAD_BITS)) as u32
    }
}

/// Size, in half-words (16-bit units), a word occupies on a compressed bus.
///
/// Used for memory-traffic accounting: a compressible word transfers in one
/// half-word, an incompressible one in two.
#[inline]
pub fn bus_halfwords(value: Word, addr: Addr) -> u64 {
    if is_compressible(value, addr) {
        1
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_value_bounds_are_compressible() {
        for v in [0i32, 1, -1, 42, -42, SMALL_MIN, SMALL_MAX] {
            assert!(is_small(v as u32), "{v} should be small");
            assert_eq!(classify(v as u32, 0xDEAD_BEE0), CompressKind::Small);
        }
    }

    #[test]
    fn just_outside_small_range_is_not_small() {
        for v in [SMALL_MIN - 1, SMALL_MAX + 1, i32::MIN, i32::MAX] {
            assert!(!is_small(v as u32), "{v} should not be small");
        }
    }

    #[test]
    fn small_roundtrip_exact_bounds() {
        for v in [SMALL_MIN, SMALL_MAX, 0, -1, 1, 12345, -12345] {
            let c = compress(v as u32, 0x1000_0000).expect("compressible");
            assert!(!c.is_pointer());
            assert_eq!(decompress(c, 0x1000_0000), v as u32);
            // Address independence for small values.
            assert_eq!(decompress(c, 0xFFFF_FFFC), v as u32);
        }
    }

    #[test]
    fn pointer_same_chunk_is_compressible() {
        let addr: Addr = 0x4000_1234;
        // Same 32 KB chunk: identical bits 31..=15.
        let value: Word = 0x4000_0FF8;
        assert_eq!(addr >> 15, value >> 15);
        assert_eq!(classify(value, addr), CompressKind::Pointer);
        let c = compress(value, addr).unwrap();
        assert!(c.is_pointer());
        assert_eq!(decompress(c, addr), value);
    }

    #[test]
    fn pointer_different_chunk_is_incompressible() {
        let addr: Addr = 0x4000_1234;
        let value: Word = 0x4001_0FF8; // different 32 KB chunk
        assert_ne!(addr >> 15, value >> 15);
        assert_eq!(classify(value, addr), CompressKind::Incompressible);
        assert_eq!(compress(value, addr), None);
    }

    #[test]
    fn chunk_boundary_is_exact() {
        let addr: Addr = 0x0000_7FFC; // chunk 0
        let value: Word = 0x0000_8000; // chunk 1 start
        assert!(!is_small(value));
        assert!(!is_same_chunk_pointer(value, addr));
        assert_eq!(classify(value, addr), CompressKind::Incompressible);
    }

    #[test]
    fn small_wins_over_pointer_when_both_apply() {
        // A value whose high 17 bits are zero stored at a low address: both
        // rules apply; classification must be Small, and the roundtrip exact.
        let addr: Addr = 0x0000_0010;
        let value: Word = 0x0000_1ABC;
        assert!(is_small(value));
        assert!(is_same_chunk_pointer(value, addr));
        assert_eq!(classify(value, addr), CompressKind::Small);
        let c = compress(value, addr).unwrap();
        assert_eq!(decompress(c, addr), value);
    }

    #[test]
    fn negative_small_keeps_sign_bit_in_payload() {
        let v: Word = (-5i32) as u32;
        let c = compress(v, 0x8000_0000).unwrap();
        assert_eq!(c.payload() & 0x4000, 0x4000, "sign bit kept in payload");
        assert_eq!(decompress(c, 0x8000_0000), v);
    }

    #[test]
    fn pointer_payload_reconstruction_uses_address_prefix() {
        let addr: Addr = 0xABCD_8010;
        let value: Word = (addr & 0xFFFF_8000) | 0x345C;
        let c = compress(value, addr).unwrap();
        assert!(c.is_pointer());
        // Reading the same compressed half-word at an address in a different
        // chunk reconstructs a different pointer — payloads are tied to
        // their storage location.
        let other: Addr = 0x1111_0000;
        assert_ne!(decompress(c, other), value);
        assert_eq!(decompress(c, other) & 0x7FFF, value & 0x7FFF);
    }

    #[test]
    fn bus_halfwords_accounting() {
        assert_eq!(bus_halfwords(3, 0), 1);
        assert_eq!(bus_halfwords(0xDEAD_BEEF, 0), 2);
        let addr = 0x7000_0040;
        assert_eq!(bus_halfwords(0x7000_0100, addr), 1);
    }

    #[test]
    fn vt_bit_disambiguates_small_and_pointer() {
        let addr: Addr = 0x0101_8000;
        let small = compress(7, addr).unwrap();
        let ptr = compress(addr | 0x7, addr).unwrap();
        assert!(!small.is_pointer());
        assert!(ptr.is_pointer());
        assert_ne!(small, ptr);
    }

    #[test]
    fn compressible_bit_agrees_with_predicate() {
        let mut x = 0x1234_5678u32;
        for i in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let addr = (x.wrapping_mul(2654435761) & !3).wrapping_add(i * 4);
            assert_eq!(
                compressible_bit(x, addr),
                u32::from(is_compressible(x, addr)),
                "value {x:#x} at {addr:#x}"
            );
        }
        for v in [
            0,
            1,
            SMALL_MAX as u32,
            (SMALL_MAX + 1) as u32,
            SMALL_MIN as u32,
            (SMALL_MIN - 1) as u32,
            0xDEAD_BEEF,
        ] {
            assert_eq!(
                compressible_bit(v, 0x1000),
                u32::from(is_compressible(v, 0x1000))
            );
        }
    }

    #[test]
    fn line_compress_mask_matches_per_word_classification() {
        let base = 0x4000_0F00u32;
        let words: Vec<u32> = (0..32u32)
            .map(|i| match i % 4 {
                0 => i,               // small
                1 => base | (i << 2), // same-chunk pointer
                2 => 0x8000_0000 | i, // incompressible
                _ => (-3i32) as u32,  // small (negative)
            })
            .collect();
        let mask = line_compress_mask(&words, base);
        for (i, &w) in words.iter().enumerate() {
            let a = base + 4 * (i as u32);
            assert_eq!(
                mask >> i & 1 == 1,
                is_compressible(w, a),
                "word {i} ({w:#x}) at {a:#x}"
            );
        }
        assert_eq!(line_compress_mask(&[], base), 0);
    }

    #[test]
    fn all_small_values_roundtrip_exhaustively() {
        // The entire small range is only 32768 values — test all of them.
        for v in SMALL_MIN..=SMALL_MAX {
            let c = compress(v as u32, 0x5555_0000).expect("small");
            assert!(!c.is_pointer());
            assert_eq!(decompress(c, 0x9999_0000), v as u32);
        }
    }
}
