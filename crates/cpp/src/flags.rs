//! Per-line flag state of a compression-cache physical line (paper Figure 7).
//!
//! Each physical line can hold a **primary** line plus compressed words of
//! its **affiliated** line in the half-word slots freed by compression.
//! Three bit-vectors (one bit per word slot, ≤ 32 words) track it:
//!
//! * `PA` — primary word available (word-based L2 responses and promoted
//!   lines make partial primaries possible),
//! * `VCP` — primary word stored in compressed (16-bit) form,
//! * `AA` — affiliated word available; affiliated words are *always*
//!   compressed, so they need no VC flag of their own.
//!
//! Structural invariants (stated once, in [`CppFlags::broken_rules`]): no
//! bits beyond the line's words, `VCP ⊆ PA` (compression only applies to
//! present words) and `AA ⊆ VCP ∪ ¬PA` (an affiliated word needs a freed
//! half-slot or an empty slot).

/// Flag bundle of one physical line. Bit *i* refers to word slot *i*.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CppFlags {
    /// Primary-availability bits.
    pub pa: u32,
    /// Primary value-compressed bits.
    pub vcp: u32,
    /// Affiliated-availability bits.
    pub aa: u32,
}

impl CppFlags {
    /// An empty flag set (no words present).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Flags of a fully-present primary line with compressed words `vcp`
    /// and affiliated words `aa` (masked to the structural invariant).
    pub fn full_primary(words: u32, vcp: u32, aa: u32) -> Self {
        let pa = mask_n(words);
        let vcp = vcp & pa;
        CppFlags {
            pa,
            vcp,
            aa: aa & (vcp | !pa) & mask_n(words),
        }
    }

    /// Whether primary word `i` is available.
    #[inline]
    pub fn pa_bit(&self, i: u32) -> bool {
        self.pa & (1 << i) != 0
    }

    /// Whether primary word `i` is stored compressed.
    #[inline]
    pub fn vcp_bit(&self, i: u32) -> bool {
        self.vcp & (1 << i) != 0
    }

    /// Whether affiliated word `i` is available.
    #[inline]
    pub fn aa_bit(&self, i: u32) -> bool {
        self.aa & (1 << i) != 0
    }

    /// Slots that can accept an affiliated word: freed halves (`VCP`) and
    /// empty slots (`¬PA`).
    #[inline]
    pub fn affiliated_capacity(&self, words: u32) -> u32 {
        (self.vcp | !self.pa) & mask_n(words)
    }

    /// Describes each structural invariant the flags break, in rule order:
    /// bits beyond the line's `words`, `VCP ⊄ PA`, then an `AA` word without
    /// a free half-slot. Empty iff the flags are well formed.
    pub fn broken_rules(&self, words: u32) -> Vec<String> {
        let m = mask_n(words);
        let mut out = Vec::new();
        if (self.pa | self.vcp | self.aa) & !m != 0 {
            out.push(format!("flag bits beyond {words} words: {self:x?}"));
        }
        if self.vcp & !self.pa != 0 {
            out.push(format!("VCP ⊄ PA: {self:x?}"));
        }
        if self.aa & !self.affiliated_capacity(words) & m != 0 {
            out.push(format!("AA word without a free half-slot: {self:x?}"));
        }
        out
    }
}

/// A mask of the low `n` bits (`n ≤ 32`).
#[inline]
pub fn mask_n(n: u32) -> u32 {
    debug_assert!(n <= 32);
    if n == 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_n_edges() {
        assert_eq!(mask_n(0), 0);
        assert_eq!(mask_n(1), 1);
        assert_eq!(mask_n(16), 0xFFFF);
        assert_eq!(mask_n(32), u32::MAX);
    }

    #[test]
    fn empty_flags_pass_check() {
        assert!(CppFlags::empty().broken_rules(16).is_empty());
    }

    #[test]
    fn full_primary_masks_aa_to_capacity() {
        // 4-word line: words 0,1 compressed; AA asks for 0..=3 but only
        // compressed slots qualify (PA is full).
        let f = CppFlags::full_primary(4, 0b0011, 0b1111);
        assert_eq!(f.pa, 0b1111);
        assert_eq!(f.vcp, 0b0011);
        assert_eq!(f.aa, 0b0011);
        assert!(f.broken_rules(4).is_empty());
    }

    #[test]
    fn affiliated_capacity_includes_empty_slots() {
        let f = CppFlags {
            pa: 0b0011,
            vcp: 0b0001,
            aa: 0,
        };
        // Slot 0 compressed, slot 1 uncompressed, slots 2..16 empty.
        assert_eq!(f.affiliated_capacity(4), 0b1101);
    }

    #[test]
    fn check_rejects_vcp_outside_pa() {
        let f = CppFlags {
            pa: 0b0001,
            vcp: 0b0010,
            aa: 0,
        };
        assert_eq!(f.broken_rules(16).len(), 1);
    }

    #[test]
    fn check_rejects_aa_in_uncompressed_slot() {
        let f = CppFlags {
            pa: 0b0001,
            vcp: 0,
            aa: 0b0001,
        };
        assert_eq!(f.broken_rules(16).len(), 1);
    }

    #[test]
    fn check_rejects_out_of_range_bits() {
        let f = CppFlags {
            pa: 1 << 20,
            vcp: 0,
            aa: 0,
        };
        assert_eq!(f.broken_rules(16).len(), 1);
    }

    #[test]
    fn bit_accessors() {
        let f = CppFlags {
            pa: 0b101,
            vcp: 0b100,
            aa: 0b100,
        };
        assert!(f.pa_bit(0));
        assert!(!f.pa_bit(1));
        assert!(f.vcp_bit(2));
        assert!(f.aa_bit(2));
        assert!(!f.aa_bit(0));
    }
}
