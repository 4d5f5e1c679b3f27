#![warn(missing_docs)]

//! Pluggable word-compression schemes for the cache hierarchies.
//!
//! The paper's simulator hard-codes one compression predicate (small value /
//! same-chunk pointer). This crate abstracts that choice behind the
//! [`CompressionScheme`] trait so the same CPP hierarchy machinery — parking,
//! promotion, partial prefetching, VCP bookkeeping — can be studied under the
//! standard comparison baselines from the literature:
//!
//! * [`CppScheme`] — the paper's scheme, delegating to [`ccp_compress`]. The
//!   reference implementation: with this scheme the generic hierarchy is
//!   field-identical to the hard-coded one (pinned by `repro difftest`).
//! * [`BdiScheme`] — a 2:1 adaptation of Base-Delta-Immediate (Pekhimenko et
//!   al.): a word compresses when it is a 15-bit immediate or a 15-bit delta
//!   against the *base word* (word 0) of its cache line.
//! * [`FpcScheme`] — a 2:1 adaptation of Frequent Pattern Compression (Alameldeen
//!   & Wood): a 3-bit pattern prefix plus 13-bit payload covering zero,
//!   narrow sign-extended values, and repeated-byte words.
//!
//! Every scheme compresses a 32-bit word to exactly 16 bits or not at all —
//! the half-word granularity is what the CPP flag machinery (one VCP bit per
//! word, affiliated half-lines) is built on, so schemes from the literature
//! are *re-quantized* to that grain rather than ported layout-for-layout.
//!
//! # Dispatch contract
//!
//! Schemes are zero-sized types dispatched **statically**: the hierarchies
//! take the scheme as a type parameter and monomorphize, so the branchless
//! fast path of the CPP scheme survives (its `BASE_SENSITIVE = false`
//! const-folds the base-word plumbing away entirely). Runtime selection
//! happens once, at hierarchy construction, via the closed [`SchemeKind`]
//! enum — never through `dyn CompressionScheme` on a replay path (ccp-lint
//! rule R9 `no-dyn-scheme-in-hot-path` pins this).
//!
//! # Tag-overhead model
//!
//! Following Touché's observation that metadata cost changes which scheme
//! wins, every scheme reports its per-line tag/metadata overhead via
//! [`CompressionScheme::tag_bits_per_line`]; the hierarchies sum this over
//! their geometry into `HierarchyStats::tag_overhead_bits` so reports can
//! rank schemes on compression benefit *net of* the SRAM they spend.

pub mod swar;

use ccp_compress::{Addr, Word, WORD_BYTES};

/// Number of bits in the compressed half-word every scheme targets.
pub const HALF_BITS: u32 = 16;

/// Payload bits available to a BDI half-word (bit 15 is the selector).
pub const BDI_PAYLOAD_BITS: u32 = 15;

/// Selector bit of a BDI half-word: `0` = immediate, `1` = base+delta.
pub const BDI_DELTA_BIT: u16 = 0x8000;

/// Payload bits available to an FPC half-word (bits 15..=13 are the prefix).
pub const FPC_PAYLOAD_BITS: u32 = 13;

/// Inclusive bounds of the FPC sign-extended payload range.
pub const FPC_MIN: i32 = -(1 << (FPC_PAYLOAD_BITS - 1));
/// Inclusive upper bound of the FPC sign-extended payload range.
pub const FPC_MAX: i32 = (1 << (FPC_PAYLOAD_BITS - 1)) - 1;

/// A word-compression scheme: the compressibility predicate, the 32→16-bit
/// encoding, and the per-line metadata cost.
///
/// # Contract
///
/// Implementations are zero-sized marker types; every method is static and
/// total. For all `(value, addr, base_addr, base_val)`:
///
/// 1. **Encode/decode bijection** — `word_compressible` is `true` exactly
///    when `encode` returns `Some`, and
///    `decode(encode(v).unwrap()) == v` (metamorphic "encode∘decode = id").
/// 2. **Branch-free agreement** — `compressible_bit` returns
///    `u32::from(word_compressible(..))` (it exists so line scans can stay
///    branchless; the hierarchies rely on the agreement, not the codegen).
/// 3. **Zero lines compress fully** — an all-zero line must have every word
///    compressible. The hierarchies classify never-written (zero-fill) lines
///    without materializing them; that fast path assumes a full mask.
/// 4. **Base semantics** — `base_addr` is the address of word 0 of the
///    enclosing cache line and `base_val` is that word's current value.
///    Schemes with [`CompressionScheme::BASE_SENSITIVE`]` = false` must
///    ignore both (the hierarchies then skip fetching them entirely).
pub trait CompressionScheme: Copy + Default + std::fmt::Debug + Send + Sync + 'static {
    /// Human-readable scheme id (`"CPP"`, `"BDI"`, `"FPC"`).
    const NAME: &'static str;

    /// The closed-enum tag for this scheme.
    const KIND: SchemeKind;

    /// Whether compressibility of a word depends on the line's base word.
    ///
    /// When `false`, a store to one word can only change *that* word's
    /// compressibility; when `true`, a store to word 0 re-classifies the
    /// whole line and the hierarchies must refresh every VCP bit.
    const BASE_SENSITIVE: bool;

    /// `true` iff `value`, stored at `addr` in the line based at
    /// `base_addr` whose word 0 holds `base_val`, compresses to 16 bits.
    fn word_compressible(value: Word, addr: Addr, base_addr: Addr, base_val: Word) -> bool;

    /// Branch-free form of [`CompressionScheme::word_compressible`]:
    /// `1` when compressible, else `0`.
    #[inline]
    fn compressible_bit(value: Word, addr: Addr, base_addr: Addr, base_val: Word) -> u32 {
        u32::from(Self::word_compressible(value, addr, base_addr, base_val))
    }

    /// Compressibility mask of a whole line: bit *i* set iff `words[i]`,
    /// stored at `base_addr + 4*i`, is compressible. `words[0]` is the base
    /// word.
    ///
    /// # Panics
    /// Debug-asserts `words.len() <= 32` (flag masks are 32 bits wide).
    #[inline]
    fn line_mask(words: &[Word], base_addr: Addr) -> u32 {
        debug_assert!(words.len() <= 32, "flag masks hold at most 32 words");
        let base_val = words.first().copied().unwrap_or(0);
        let mut mask = 0u32;
        let mut bit = 1u32;
        let mut addr = base_addr;
        for &w in words {
            mask |= bit & Self::compressible_bit(w, addr, base_addr, base_val).wrapping_neg();
            bit = bit.wrapping_shl(1);
            addr = addr.wrapping_add(WORD_BYTES);
        }
        mask
    }

    /// Compresses `value` to its 16-bit form, or `None` when incompressible.
    fn encode(value: Word, addr: Addr, base_addr: Addr, base_val: Word) -> Option<u16>;

    /// Reconstructs the original word from its 16-bit form.
    fn decode(half: u16, addr: Addr, base_addr: Addr, base_val: Word) -> Word;

    /// Tag/metadata SRAM the scheme spends per cache line of `line_words`
    /// words, in bits (the Touché-style static overhead model).
    fn tag_bits_per_line(line_words: u32) -> u64;
}

/// Closed enum over every scheme the workspace knows — the runtime selector
/// that monomorphized hierarchies are constructed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchemeKind {
    /// The paper's small-value / same-chunk-pointer scheme.
    #[default]
    Cpp,
    /// Base-Delta-Immediate, re-quantized to 2:1 half-word grain.
    Bdi,
    /// Frequent Pattern Compression, re-quantized to 2:1 half-word grain.
    Fpc,
}

impl SchemeKind {
    /// Every scheme, in canonical report order.
    pub const ALL: [SchemeKind; 3] = [SchemeKind::Cpp, SchemeKind::Bdi, SchemeKind::Fpc];

    /// Canonical scheme id (`"CPP"` / `"BDI"` / `"FPC"`).
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Cpp => CppScheme::NAME,
            SchemeKind::Bdi => BdiScheme::NAME,
            SchemeKind::Fpc => FpcScheme::NAME,
        }
    }

    /// Parses a scheme id, case-insensitively, ignoring surrounding space.
    pub fn from_name(name: &str) -> Option<SchemeKind> {
        let name = name.trim();
        Self::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// [`CompressionScheme::tag_bits_per_line`], dispatched at runtime (for
    /// report code that is not monomorphized per scheme).
    pub fn tag_bits_per_line(self, line_words: u32) -> u64 {
        match self {
            SchemeKind::Cpp => CppScheme::tag_bits_per_line(line_words),
            SchemeKind::Bdi => BdiScheme::tag_bits_per_line(line_words),
            SchemeKind::Fpc => FpcScheme::tag_bits_per_line(line_words),
        }
    }
}

/// The paper's scheme: 15-bit small values and same-32KB-chunk pointers.
///
/// Pure delegation to the [`ccp_compress`] kernels — the branch-free
/// per-word test and the tuned line scan — so routing the hierarchies
/// through the trait costs nothing: `BASE_SENSITIVE = false` folds the base
/// plumbing away and `line_mask` *is* `line_compress_mask`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CppScheme;

impl CompressionScheme for CppScheme {
    const NAME: &'static str = "CPP";
    const KIND: SchemeKind = SchemeKind::Cpp;
    const BASE_SENSITIVE: bool = false;

    #[inline]
    fn word_compressible(value: Word, addr: Addr, _base_addr: Addr, _base_val: Word) -> bool {
        ccp_compress::is_compressible(value, addr)
    }

    #[inline]
    fn compressible_bit(value: Word, addr: Addr, _base_addr: Addr, _base_val: Word) -> u32 {
        ccp_compress::compressible_bit(value, addr)
    }

    #[inline]
    fn line_mask(words: &[Word], base_addr: Addr) -> u32 {
        ccp_compress::line_compress_mask(words, base_addr)
    }

    #[inline]
    fn encode(value: Word, addr: Addr, _base_addr: Addr, _base_val: Word) -> Option<u16> {
        ccp_compress::compress(value, addr).map(|c| c.0)
    }

    #[inline]
    fn decode(half: u16, addr: Addr, _base_addr: Addr, _base_val: Word) -> Word {
        ccp_compress::decompress(ccp_compress::Compressed(half), addr)
    }

    /// One VC/VCP bit per word; the VT tag travels inside the half-word.
    fn tag_bits_per_line(line_words: u32) -> u64 {
        u64::from(line_words)
    }
}

#[inline]
fn fits_signed(value: i32, bits: u32) -> bool {
    let hi = value >> (bits - 1);
    hi == 0 || hi == -1
}

/// Sign-extends the low `bits` bits of `payload` to a full word.
#[inline]
fn sign_extend(payload: u32, bits: u32) -> Word {
    // ccp-lint: allow(no-lossy-cast-in-hot-path) — same-width i32↔u32 reinterpretation for the arithmetic shift; nothing is truncated
    (((payload << (32 - bits)) as i32) >> (32 - bits)) as u32
}

/// Base-Delta-Immediate (Pekhimenko et al., PACT 2012), re-quantized to the
/// CPP hierarchies' 2:1 half-word grain.
///
/// A word compresses iff it is a 15-bit signed immediate (`[-16384, 16383]`,
/// the same range as the paper's small-value rule) or its delta against the
/// line's **base word** (word 0) fits 15 signed bits. The base word itself
/// is immediate-only: its delta is trivially zero and decoding it must not
/// require having decoded it already.
///
/// Half-word layout: bit 15 selects immediate (`0`) or delta (`1`); the low
/// 15 bits hold the sign-extended payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BdiScheme;

impl BdiScheme {
    #[inline]
    fn delta_fits(value: Word, addr: Addr, base_addr: Addr, base_val: Word) -> bool {
        let delta = value.wrapping_sub(base_val) as i32;
        addr != base_addr && fits_signed(delta, BDI_PAYLOAD_BITS)
    }
}

impl CompressionScheme for BdiScheme {
    const NAME: &'static str = "BDI";
    const KIND: SchemeKind = SchemeKind::Bdi;
    const BASE_SENSITIVE: bool = true;

    #[inline]
    fn word_compressible(value: Word, addr: Addr, base_addr: Addr, base_val: Word) -> bool {
        fits_signed(value as i32, BDI_PAYLOAD_BITS)
            || Self::delta_fits(value, addr, base_addr, base_val)
    }

    #[inline]
    fn line_mask(words: &[Word], base_addr: Addr) -> u32 {
        swar::bdi_line_mask_swar(words, base_addr)
    }

    #[inline]
    fn encode(value: Word, addr: Addr, base_addr: Addr, base_val: Word) -> Option<u16> {
        // Immediate wins when both apply: decoding then needs no base read.
        if fits_signed(value as i32, BDI_PAYLOAD_BITS) {
            // ccp-lint: allow(no-lossy-cast-in-hot-path) — fits_signed just proved bits 31..=15 are redundant sign copies
            Some((value as u16) & !BDI_DELTA_BIT)
        } else if Self::delta_fits(value, addr, base_addr, base_val) {
            let delta = value.wrapping_sub(base_val);
            // ccp-lint: allow(no-lossy-cast-in-hot-path) — delta_fits just proved the delta's high bits are redundant sign copies
            Some(((delta as u16) & !BDI_DELTA_BIT) | BDI_DELTA_BIT)
        } else {
            None
        }
    }

    #[inline]
    fn decode(half: u16, _addr: Addr, _base_addr: Addr, base_val: Word) -> Word {
        let payload = sign_extend(u32::from(half & !BDI_DELTA_BIT), BDI_PAYLOAD_BITS);
        if half & BDI_DELTA_BIT != 0 {
            base_val.wrapping_add(payload)
        } else {
            payload
        }
    }

    /// One VC bit per word plus a 4-bit per-line encoding selector (the BDI
    /// paper's base-size/delta-size field, kept even though this port pins
    /// one geometry, so the overhead model matches the original hardware).
    fn tag_bits_per_line(line_words: u32) -> u64 {
        u64::from(line_words) + 4
    }
}

/// FPC pattern prefixes (bits 15..=13 of the half-word).
mod fpc_class {
    /// All-zero word.
    pub const ZERO: u16 = 0b000;
    /// 4-bit sign-extended value.
    pub const SE4: u16 = 0b001;
    /// 8-bit sign-extended value.
    pub const SE8: u16 = 0b010;
    /// 13-bit sign-extended value.
    pub const SE13: u16 = 0b011;
    /// One byte repeated four times.
    pub const REPEAT: u16 = 0b100;
}

/// Frequent Pattern Compression (Alameldeen & Wood, ISCA 2004), re-quantized
/// to the CPP hierarchies' 2:1 half-word grain.
///
/// A word compresses iff it sign-extends from 13 bits (`[-4096, 4095]`) or
/// is one byte repeated four times. The half-word carries a 3-bit pattern
/// prefix (bits 15..=13) and a 13-bit payload; [`FpcScheme::encode`] picks
/// the narrowest matching class so the prefix histogram stays meaningful
/// even though every class costs the same 16 bits here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpcScheme;

impl FpcScheme {
    const PAYLOAD_MASK: u16 = (1 << FPC_PAYLOAD_BITS) - 1;

    #[inline]
    fn is_repeated_byte(value: Word) -> bool {
        value == value.rotate_left(8)
    }
}

impl CompressionScheme for FpcScheme {
    const NAME: &'static str = "FPC";
    const KIND: SchemeKind = SchemeKind::Fpc;
    const BASE_SENSITIVE: bool = false;

    #[inline]
    fn word_compressible(value: Word, _addr: Addr, _base_addr: Addr, _base_val: Word) -> bool {
        fits_signed(value as i32, FPC_PAYLOAD_BITS) || Self::is_repeated_byte(value)
    }

    #[inline]
    fn compressible_bit(value: Word, _addr: Addr, _base_addr: Addr, _base_val: Word) -> u32 {
        let hi = (value as i32) >> (FPC_PAYLOAD_BITS - 1);
        let narrow = u32::from(hi == 0) | u32::from(hi == -1);
        narrow | u32::from(value == value.rotate_left(8))
    }

    #[inline]
    fn line_mask(words: &[Word], base_addr: Addr) -> u32 {
        swar::fpc_line_mask_swar(words, base_addr)
    }

    #[inline]
    fn encode(value: Word, _addr: Addr, _base_addr: Addr, _base_val: Word) -> Option<u16> {
        let v = value as i32;
        let class = if value == 0 {
            fpc_class::ZERO
        } else if fits_signed(v, 4) {
            fpc_class::SE4
        } else if fits_signed(v, 8) {
            fpc_class::SE8
        } else if fits_signed(v, FPC_PAYLOAD_BITS) {
            fpc_class::SE13
        } else if Self::is_repeated_byte(value) {
            fpc_class::REPEAT
        } else {
            return None;
        };
        let payload = match class {
            // ccp-lint: allow(no-lossy-cast-in-hot-path) — repeated-byte payload keeps exactly the one distinct byte
            fpc_class::REPEAT => (value as u16) & 0xFF,
            // ccp-lint: allow(no-lossy-cast-in-hot-path) — the class test just proved bits 31..=13 are redundant sign copies
            _ => (value as u16) & Self::PAYLOAD_MASK,
        };
        Some((class << FPC_PAYLOAD_BITS) | payload)
    }

    #[inline]
    fn decode(half: u16, _addr: Addr, _base_addr: Addr, _base_val: Word) -> Word {
        let class = half >> FPC_PAYLOAD_BITS;
        let payload = u32::from(half & Self::PAYLOAD_MASK);
        match class {
            fpc_class::ZERO => 0,
            fpc_class::REPEAT => (payload & 0xFF) * 0x0101_0101,
            // SE4/SE8/SE13 all stored the full 13-bit sign-extended payload.
            _ => sign_extend(payload, FPC_PAYLOAD_BITS),
        }
    }

    /// One VC bit per word plus a 3-bit pattern prefix held in the tag array
    /// per word — FPC's variable-length decode needs the prefixes resident
    /// before the data array is read.
    fn tag_bits_per_line(line_words: u32) -> u64 {
        4 * u64::from(line_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE_ADDR: Addr = 0x4000_0100;
    const BASE_VAL: Word = 0x4000_2000;

    fn roundtrip<S: CompressionScheme>(value: Word, addr: Addr, base_addr: Addr, base_val: Word) {
        let compressible = S::word_compressible(value, addr, base_addr, base_val);
        assert_eq!(
            S::compressible_bit(value, addr, base_addr, base_val),
            u32::from(compressible),
            "{}: bit/predicate disagree on {value:#x} @ {addr:#x}",
            S::NAME
        );
        match S::encode(value, addr, base_addr, base_val) {
            Some(half) => {
                assert!(compressible, "{}: encoded but not compressible", S::NAME);
                assert_eq!(
                    S::decode(half, addr, base_addr, base_val),
                    value,
                    "{}: {value:#x} @ {addr:#x} did not round-trip",
                    S::NAME
                );
            }
            None => assert!(!compressible, "{}: compressible but no encoding", S::NAME),
        }
    }

    fn exercise_scheme<S: CompressionScheme>() {
        let mut x = 0x1234_5678u32;
        for i in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let addr = BASE_ADDR.wrapping_add((i % 16) * WORD_BYTES);
            roundtrip::<S>(x, addr, BASE_ADDR, BASE_VAL);
            roundtrip::<S>(x, BASE_ADDR, BASE_ADDR, x);
        }
        for v in [
            0u32,
            1,
            0xFFFF_FFFF,
            16383,
            16384,
            (-16384i32) as u32,
            (-16385i32) as u32,
            4095,
            4096,
            (-4096i32) as u32,
            (-4097i32) as u32,
            0xABAB_ABAB,
            0x8000_0000,
            BASE_VAL,
            BASE_VAL.wrapping_add(16383),
            BASE_VAL.wrapping_sub(16384),
            BASE_VAL.wrapping_add(16384),
        ] {
            roundtrip::<S>(v, BASE_ADDR, BASE_ADDR, BASE_VAL);
            roundtrip::<S>(v, BASE_ADDR + 4, BASE_ADDR, BASE_VAL);
        }
    }

    #[test]
    fn cpp_contract_holds() {
        exercise_scheme::<CppScheme>();
    }

    #[test]
    fn bdi_contract_holds() {
        exercise_scheme::<BdiScheme>();
    }

    #[test]
    fn fpc_contract_holds() {
        exercise_scheme::<FpcScheme>();
    }

    #[test]
    fn cpp_scheme_matches_compress_crate_exactly() {
        let mut x = 0x9E37_79B9u32;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let addr = x.wrapping_mul(2654435761) & !3;
            assert_eq!(
                CppScheme::word_compressible(x, addr, 0, 0),
                ccp_compress::is_compressible(x, addr)
            );
            assert_eq!(
                CppScheme::encode(x, addr, 0, 0),
                ccp_compress::compress(x, addr).map(|c| c.0)
            );
        }
    }

    #[test]
    fn zero_line_is_fully_compressible_under_every_scheme() {
        let words = [0u32; 32];
        assert_eq!(CppScheme::line_mask(&words, BASE_ADDR), u32::MAX);
        assert_eq!(BdiScheme::line_mask(&words, BASE_ADDR), u32::MAX);
        assert_eq!(FpcScheme::line_mask(&words, BASE_ADDR), u32::MAX);
        assert_eq!(CppScheme::line_mask(&words[..16], BASE_ADDR), 0xFFFF);
        assert_eq!(BdiScheme::line_mask(&words[..16], BASE_ADDR), 0xFFFF);
        assert_eq!(FpcScheme::line_mask(&words[..16], BASE_ADDR), 0xFFFF);
    }

    #[test]
    fn line_mask_uses_word_zero_as_base() {
        // All words near a large base: BDI compresses every non-base word as
        // a delta (the base slot is immediate-only, so bit 0 stays clear);
        // FPC and CPP (different chunk) reject every word.
        let base = 0x7654_0000u32;
        let words: Vec<Word> = (0..8).map(|i| base.wrapping_add(i * 8)).collect();
        let addr = 0x0001_0000;
        assert_eq!(BdiScheme::line_mask(&words, addr), 0xFE);
        assert_eq!(FpcScheme::line_mask(&words, addr), 0);
        assert_eq!(CppScheme::line_mask(&words, addr), 0);
        // Rewriting the base word re-classifies the whole line: the deltas
        // against the new base no longer fit.
        let mut words = words;
        words[0] = 0x1111_1111;
        assert_eq!(BdiScheme::line_mask(&words, addr), 0);
    }

    #[test]
    fn bdi_base_word_is_immediate_only() {
        // Base word equals itself (delta 0) but exceeds the immediate
        // range: deltas are not allowed at the base slot.
        assert!(!BdiScheme::word_compressible(
            BASE_VAL, BASE_ADDR, BASE_ADDR, BASE_VAL
        ));
        assert!(BdiScheme::word_compressible(
            BASE_VAL,
            BASE_ADDR + 4,
            BASE_ADDR,
            BASE_VAL
        ));
        // Small immediates compress even at the base slot.
        assert!(BdiScheme::word_compressible(42, BASE_ADDR, BASE_ADDR, 42));
    }

    #[test]
    fn bdi_delta_boundaries_are_exact() {
        let addr = BASE_ADDR + 4;
        for (delta, ok) in [
            (16383i32, true),
            (-16384, true),
            (16384, false),
            (-16385, false),
        ] {
            let v = BASE_VAL.wrapping_add(delta as u32);
            assert_eq!(
                BdiScheme::word_compressible(v, addr, BASE_ADDR, BASE_VAL),
                ok,
                "delta {delta}"
            );
        }
    }

    #[test]
    fn fpc_picks_the_narrowest_class() {
        let cases = [
            (0u32, fpc_class::ZERO),
            (7, fpc_class::SE4),
            ((-8i32) as u32, fpc_class::SE4),
            (8, fpc_class::SE8),
            (127, fpc_class::SE8),
            ((-128i32) as u32, fpc_class::SE8),
            (128, fpc_class::SE13),
            (4095, fpc_class::SE13),
            ((-4096i32) as u32, fpc_class::SE13),
            (0xABAB_ABAB, fpc_class::REPEAT),
            (0xFFFF_FFFF, fpc_class::SE4), // -1: narrow wins over repeat
        ];
        for (v, class) in cases {
            let half = FpcScheme::encode(v, 0, 0, 0).expect("compressible");
            assert_eq!(half >> FPC_PAYLOAD_BITS, class, "value {v:#x}");
            assert_eq!(FpcScheme::decode(half, 0, 0, 0), v);
        }
        assert_eq!(FpcScheme::encode(4096, 0, 0, 0), None);
        assert_eq!(FpcScheme::encode(0x1234_5678, 0, 0, 0), None);
    }

    #[test]
    fn scheme_kind_roundtrips_names() {
        for kind in SchemeKind::ALL {
            assert_eq!(SchemeKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                SchemeKind::from_name(&kind.name().to_lowercase()),
                Some(kind)
            );
            assert_eq!(
                SchemeKind::from_name(&format!("  {} ", kind.name())),
                Some(kind)
            );
        }
        assert_eq!(SchemeKind::from_name("BC"), None);
        assert_eq!(SchemeKind::from_name(""), None);
        assert_eq!(SchemeKind::default(), SchemeKind::Cpp);
    }

    #[test]
    fn tag_overhead_model_matches_design_doc() {
        // Paper geometry: L1 128 lines × 16 words, L2 512 lines × 32 words.
        let total = |per: fn(u32) -> u64| 128 * per(16) + 512 * per(32);
        assert_eq!(CppScheme::tag_bits_per_line(16), 16);
        assert_eq!(BdiScheme::tag_bits_per_line(16), 20);
        assert_eq!(FpcScheme::tag_bits_per_line(16), 64);
        assert_eq!(total(CppScheme::tag_bits_per_line), 18_432);
        assert_eq!(total(BdiScheme::tag_bits_per_line), 20_992);
        assert_eq!(total(FpcScheme::tag_bits_per_line), 73_728);
        for kind in SchemeKind::ALL {
            assert_eq!(
                kind.tag_bits_per_line(16),
                match kind {
                    SchemeKind::Cpp => CppScheme::tag_bits_per_line(16),
                    SchemeKind::Bdi => BdiScheme::tag_bits_per_line(16),
                    SchemeKind::Fpc => FpcScheme::tag_bits_per_line(16),
                }
            );
        }
    }
}
