//! Packed-lane (SWAR / SIMD) line-classification kernels for the BDI and
//! FPC schemes, mirroring `ccp_compress::swar` for the paper's scheme.
//!
//! Both predicates reduce to per-lane "is this bit field zero" tests:
//!
//! * **BDI** — a word is a 15-bit immediate iff bits 31..=14 are uniform
//!   (the same derivative test as the paper's small-value rule), or its
//!   per-lane wrapping delta against the line's base word passes the same
//!   test. The base word itself (word 0) is immediate-only, so its delta
//!   lane is masked out of the result.
//! * **FPC** — a word sign-extends from 13 bits iff bits 31..=12 are
//!   uniform (derivative field `0x7FFF_F000`), or it equals itself
//!   rotated left by one byte (repeated byte), an in-lane rotate built
//!   from two shifts and byte masks.
//!
//! The scalar loop stays always compiled as the oracle; the equivalence
//! battery in `crates/schemes/tests/proptests.rs` pins packed ≡ scalar on
//! arbitrary lines for every scheme.

use crate::{CompressionScheme, Word};
use ccp_compress::swar::{lane_nonzero, lane_sub, pack2, LANE_TOP};
use ccp_compress::Addr;

/// Per-word scalar line scan over any scheme — the default-method loop,
/// kept as the oracle the proptests compare the packed overrides against.
#[inline]
pub fn scalar_line_mask<S: CompressionScheme>(words: &[Word], base_addr: Addr) -> u32 {
    debug_assert!(words.len() <= 32, "flag masks hold at most 32 words");
    let base_val = words.first().copied().unwrap_or(0);
    let mut mask = 0u32;
    let mut bit = 1u32;
    let mut addr = base_addr;
    for &w in words {
        mask |= bit & S::compressible_bit(w, addr, base_addr, base_val).wrapping_neg();
        bit = bit.wrapping_shl(1);
        addr = addr.wrapping_add(crate::WORD_BYTES);
    }
    mask
}

/// Derivative field of the 15-bit uniform-high-bits test (bits 14..=30).
const BDI_FIELD2: u64 = 0x7FFF_C000_7FFF_C000;

/// Derivative field of the 13-bit uniform-high-bits test (bits 12..=30).
const FPC_FIELD2: u64 = 0x7FFF_F000_7FFF_F000;

/// Bytes 1..=3 of each lane (the `<< 8` half of an in-lane byte rotate).
const ROT_HI2: u64 = 0xFFFF_FF00_FFFF_FF00;

/// Byte 0 of each lane (the `>> 24` half of an in-lane byte rotate).
const ROT_LO2: u64 = 0x0000_00FF_0000_00FF;

/// Per-lane `rotate_left(8)` on two 32-bit lanes.
#[inline]
fn lane_rotl8(v: u64) -> u64 {
    ((v << 8) & ROT_HI2) | ((v >> 24) & ROT_LO2)
}

/// Converts a two-lane [`LANE_TOP`] truth vector into mask bits `i` and
/// `i + 1`.
#[inline]
fn lane_bits(good: u64, i: usize) -> u64 {
    (((good >> 31) & 1) << i) | (((good >> 63) & 1) << (i + 1))
}

/// Two-lane SWAR BDI line scan: immediate OR delta-vs-base-word, with the
/// base word (bit 0) immediate-only.
#[inline]
pub fn bdi_line_mask_swar(words: &[Word], base_addr: Addr) -> u32 {
    debug_assert!(words.len() <= 32, "flag masks hold at most 32 words");
    let base_val = words.first().copied().unwrap_or(0);
    let base2 = pack2(base_val, base_val);
    let mut imm64 = 0u64;
    let mut delta64 = 0u64;
    let mut i = 0usize;
    while i + 2 <= words.len() {
        let v = pack2(words[i], words[i + 1]);
        let imm_f = (v ^ (v >> 1)) & BDI_FIELD2;
        let d = lane_sub(v, base2);
        let delta_f = (d ^ (d >> 1)) & BDI_FIELD2;
        imm64 |= lane_bits(!lane_nonzero(imm_f) & LANE_TOP, i);
        delta64 |= lane_bits(!lane_nonzero(delta_f) & LANE_TOP, i);
        i += 2;
    }
    if i < words.len() {
        let w = words[i];
        let imm = u64::from(crate::fits_signed(w as i32, crate::BDI_PAYLOAD_BITS));
        let delta = u64::from(crate::fits_signed(
            w.wrapping_sub(base_val) as i32,
            crate::BDI_PAYLOAD_BITS,
        ));
        imm64 |= imm << i;
        delta64 |= delta << i;
    }
    let _ = base_addr; // addresses only matter through the word-0 exclusion
    let mask64 = imm64 | (delta64 & !1u64);
    // ccp-lint: allow(no-lossy-cast-in-hot-path) — mask64 only holds bits 0..words.len() <= 32; the conversion is exact
    (mask64 & 0xFFFF_FFFF) as u32
}

/// Two-lane SWAR FPC line scan: 13-bit sign-extend OR repeated byte.
#[inline]
pub fn fpc_line_mask_swar(words: &[Word], _base_addr: Addr) -> u32 {
    debug_assert!(words.len() <= 32, "flag masks hold at most 32 words");
    let mut mask64 = 0u64;
    let mut i = 0usize;
    while i + 2 <= words.len() {
        let v = pack2(words[i], words[i + 1]);
        let narrow_f = (v ^ (v >> 1)) & FPC_FIELD2;
        let repeat_f = v ^ lane_rotl8(v);
        let good = !(lane_nonzero(narrow_f) & lane_nonzero(repeat_f)) & LANE_TOP;
        mask64 |= lane_bits(good, i);
        i += 2;
    }
    if i < words.len() {
        mask64 |= u64::from(crate::FpcScheme::compressible_bit(words[i], 0, 0, 0)) << i;
    }
    // ccp-lint: allow(no-lossy-cast-in-hot-path) — mask64 only holds bits 0..words.len() <= 32; the conversion is exact
    (mask64 & 0xFFFF_FFFF) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BdiScheme, FpcScheme};

    const BOUNDARY_WORDS: [u32; 16] = [
        0,
        1,
        16383,
        16384,
        0xFFFF_C000, // -16384
        0xFFFF_BFFF, // -16385
        4095,
        4096,
        0xFFFF_F000, // -4096
        0xFFFF_EFFF, // -4097
        0xABAB_ABAB, // repeated byte
        0xAB00_ABAB, // almost repeated
        0x8000_0000,
        0x7FFF_FFFF,
        0xDEAD_BEEF,
        0x1234_5678,
    ];

    #[test]
    fn bdi_swar_matches_scalar_on_boundaries() {
        for base in [0x4000u32, 0x8000_0040, 0xFFFF_FFC0] {
            let mut words = BOUNDARY_WORDS;
            for rot in 0..16 {
                words.rotate_left(1);
                let _ = rot;
                assert_eq!(
                    bdi_line_mask_swar(&words, base),
                    scalar_line_mask::<BdiScheme>(&words, base),
                    "BDI diverged on {words:?} @ {base:#x}"
                );
            }
        }
    }

    #[test]
    fn fpc_swar_matches_scalar_on_boundaries() {
        for base in [0x4000u32, 0x8000_0040] {
            let mut words = BOUNDARY_WORDS;
            for _ in 0..16 {
                words.rotate_left(1);
                assert_eq!(
                    fpc_line_mask_swar(&words, base),
                    scalar_line_mask::<FpcScheme>(&words, base),
                    "FPC diverged on {words:?} @ {base:#x}"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_on_every_length() {
        let words: Vec<u32> = (0..32u32)
            .map(|i| 0x0101_0101u32.wrapping_mul(i).wrapping_add(i << 11))
            .collect();
        for len in 0..=32usize {
            assert_eq!(
                bdi_line_mask_swar(&words[..len], 0x40),
                scalar_line_mask::<BdiScheme>(&words[..len], 0x40),
                "BDI length {len}"
            );
            assert_eq!(
                fpc_line_mask_swar(&words[..len], 0x40),
                scalar_line_mask::<FpcScheme>(&words[..len], 0x40),
                "FPC length {len}"
            );
        }
    }
}
