//! Cache geometry: size / associativity / line-size arithmetic.

use crate::Addr;

/// Static geometry of one cache level.
///
/// All fields are powers of two; construction validates this once so the
/// per-access index/tag math can be branch-free shifts and masks.
///
/// # Examples
///
/// ```
/// use ccp_cache::geometry::CacheGeometry;
///
/// // The paper's L1: 8 KB direct-mapped with 64 B lines.
/// let l1 = CacheGeometry::new(8 * 1024, 1, 64);
/// assert_eq!(l1.num_sets(), 128);
/// assert_eq!(l1.line_words(), 16);
/// // Affiliation pairs consecutive even/odd lines.
/// assert_eq!(l1.affiliated_line_base(0x0000), 0x0040);
/// assert_eq!(l1.affiliated_line_base(0x0040), 0x0000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    size_bytes: u32,
    assoc: u32,
    line_bytes: u32,
    num_sets: u32,
    line_shift: u32,
    set_shift: u32,
    set_mask: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    /// Panics unless `size_bytes`, `assoc` and `line_bytes` are powers of two
    /// with `line_bytes ≥ 4` and `assoc * line_bytes ≤ size_bytes`.
    pub fn new(size_bytes: u32, assoc: u32, line_bytes: u32) -> Self {
        assert!(size_bytes.is_power_of_two(), "size must be a power of two");
        assert!(assoc.is_power_of_two(), "assoc must be a power of two");
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= 4,
            "line size must be a power of two ≥ 4"
        );
        assert!(
            assoc * line_bytes <= size_bytes,
            "cache too small for one set"
        );
        let num_sets = size_bytes / (assoc * line_bytes);
        let line_shift = line_bytes.trailing_zeros();
        let set_shift = num_sets.trailing_zeros();
        CacheGeometry {
            size_bytes,
            assoc,
            line_bytes,
            num_sets,
            line_shift,
            set_shift,
            set_mask: num_sets - 1,
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size_bytes
    }

    /// Ways per set.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Line size in 32-bit words.
    pub fn line_words(&self) -> u32 {
        self.line_bytes / 4
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        self.num_sets
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> u32 {
        self.num_sets * self.assoc
    }

    /// The line number (address divided by line size) of `addr`.
    #[inline]
    pub fn line_number(&self, addr: Addr) -> u32 {
        addr >> self.line_shift
    }

    /// The set index of `addr`.
    #[inline]
    pub fn set_index(&self, addr: Addr) -> u32 {
        self.line_number(addr) & self.set_mask
    }

    /// The tag of `addr` (line number above the set bits).
    #[inline]
    pub fn tag(&self, addr: Addr) -> u32 {
        self.line_number(addr) >> self.set_shift
    }

    /// First byte address of the line containing `addr`.
    #[inline]
    pub fn line_base(&self, addr: Addr) -> Addr {
        addr & !(self.line_bytes - 1)
    }

    /// Word offset of `addr` within its line.
    #[inline]
    pub fn word_offset(&self, addr: Addr) -> u32 {
        (addr & (self.line_bytes - 1)) >> 2
    }

    /// Reconstructs a line's base address from `(tag, set)`.
    #[inline]
    pub fn base_from_tag_set(&self, tag: u32, set: u32) -> Addr {
        ((tag << self.set_shift) | set) << self.line_shift
    }

    /// Base address of a line's affiliated line: its `<tag, set>` is the
    /// primary's XOR `0x1` (paper §3.1), pairing consecutive even/odd lines
    /// — next-line prefetch.
    #[inline]
    pub fn affiliated_line_base(&self, addr: Addr) -> Addr {
        let tag_set = self.line_number(addr) ^ 1;
        tag_set << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper L1: 8 KB direct-mapped, 64 B lines.
    fn l1() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 1, 64)
    }

    /// Paper L2: 64 KB 2-way, 128 B lines.
    fn l2() -> CacheGeometry {
        CacheGeometry::new(64 * 1024, 2, 128)
    }

    #[test]
    fn paper_l1_geometry() {
        let g = l1();
        assert_eq!(g.num_sets(), 128);
        assert_eq!(g.line_words(), 16);
        assert_eq!(g.num_lines(), 128);
    }

    #[test]
    fn paper_l2_geometry() {
        let g = l2();
        assert_eq!(g.num_sets(), 256);
        assert_eq!(g.line_words(), 32);
        assert_eq!(g.num_lines(), 512);
    }

    #[test]
    fn index_tag_roundtrip() {
        let g = l2();
        for addr in [0u32, 0x1234_5678 & !3, 0xFFFF_FF80, 0x8000_0040] {
            let base = g.line_base(addr);
            assert_eq!(g.base_from_tag_set(g.tag(addr), g.set_index(addr)), base);
        }
    }

    #[test]
    fn word_offset_within_line() {
        let g = l1();
        assert_eq!(g.word_offset(0x40), 0);
        assert_eq!(g.word_offset(0x44), 1);
        assert_eq!(g.word_offset(0x7C), 15);
        assert_eq!(g.word_offset(0x80), 0);
    }

    #[test]
    fn consecutive_lines_map_to_consecutive_sets() {
        let g = l1();
        let s0 = g.set_index(0x0000);
        let s1 = g.set_index(0x0040);
        assert_eq!(s1, s0 + 1);
    }

    #[test]
    fn affiliated_mask_pairs_even_odd_lines() {
        let g = l1();
        // Line 2k's affiliate is 2k+1 and vice versa (an involution).
        assert_eq!(g.affiliated_line_base(0x0000), 0x0040);
        assert_eq!(g.affiliated_line_base(0x0040), 0x0000);
        assert_eq!(g.affiliated_line_base(0x1_0080), 0x1_00C0);
        // Offset within the line does not matter.
        assert_eq!(g.affiliated_line_base(0x0063), 0x0000);
    }

    #[test]
    fn affiliated_line_flips_lowest_set_bit() {
        let g = l1();
        let a = 0x2340u32;
        let aff = g.affiliated_line_base(a);
        assert_eq!(g.set_index(aff), g.set_index(a) ^ 1);
        assert_eq!(g.tag(aff), g.tag(a));
    }

    #[test]
    fn direct_mapped_tag_uses_remaining_bits() {
        let g = l1();
        // 8 KB DM, 64 B lines: 7 set bits, 6 offset bits → tag = addr >> 13.
        assert_eq!(g.tag(0xABCD_E000), 0xABCD_E000 >> 13);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_size_panics() {
        CacheGeometry::new(3000, 1, 64);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn overly_associative_cache_panics() {
        CacheGeometry::new(128, 4, 64);
    }
}
